"""What a fresh interpreter loads: lazy package names, BLAS threads, pools."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import detmom

SRC = Path(detmom.__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Defines `state()`: which of the heavy modules are loaded, and the BLAS
# thread variables.
PRELUDE = f"""
import json, os, sys

def state():
    mods = ("numpy", "concurrent.futures", "multiprocessing")
    return {{"loaded": [m for m in mods if m in sys.modules],
             "env": {{v: os.environ.get(v) for v in {BLAS_VARS!r}}}}}
"""


def fresh_env(**blas: str) -> dict:
    """This environment with detmom's source first on the path, the three
    BLAS thread variables removed and then set to ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **blas}


def probe(code: str, **blas: str):
    """The JSON that ``code`` prints last, run after `PRELUDE` in a fresh
    interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)], capture_output=True,
        text=True, env=fresh_env(**blas), timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_detmom_loads_no_submodule_until_a_name_is_read():
    got = probe("""
        import detmom
        before = state()
        missing = [n for n in detmom.__all__ if getattr(detmom, n, None) is None]
        print(json.dumps({"before": before, "missing": missing,
                          "unlisted": sorted(set(detmom.__all__) - set(dir(detmom)))}))
    """)
    assert got["before"] == {"loaded": [], "env": dict.fromkeys(BLAS_VARS)}
    assert got["missing"] == [] and got["unlisted"] == []


def test_every_public_name_is_its_submodules_object():
    for name in detmom.__all__:
        value = getattr(detmom, name)
        assert value is getattr(sys.modules[value.__module__], name), name
    with pytest.raises(AttributeError):
        detmom.no_such_name


def test_import_cli_sets_single_blas_threads_and_loads_no_pool_machinery():
    got = probe("import detmom.cli\nprint(json.dumps(state()))")
    assert got == {"loaded": ["numpy"], "env": dict.fromkeys(BLAS_VARS, "1")}


def test_import_cli_keeps_the_users_blas_threads():
    got = probe("import detmom.cli\nprint(json.dumps(state()))",
                OPENBLAS_NUM_THREADS="4", MKL_NUM_THREADS="2")
    assert got["env"] == {
        "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"
    }


def test_a_command_that_starts_no_pool_loads_no_pool_machinery():
    got = probe("""
        import contextlib, io, detmom.cli
        argv = "mc --dist normal --k 2 --n 3 --samples 5000 --seed 1 --workers 2"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = detmom.cli.main(argv.split())
        print(json.dumps({"rc": rc, **state()}))
    """)
    assert got["rc"] == 0
    assert got["loaded"] == ["numpy"]


@pytest.mark.parametrize("argv", [
    # 100,000 samples * 8^3 is past the pool's break-even: two workers pool.
    ["--k", "6", "--n", "8", "--samples", "100000", "--seed", "3", "--workers", "2"],
    ["--k", "2", "--n", "60", "--samples", "2048", "--seed", "3", "--workers", "1"],
], ids=["n8-pooled", "n60"])
def test_seeded_normal_mc_prints_the_same_for_any_blas_threads(argv):
    outs = []
    for blas in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "8"}):
        proc = subprocess.run(
            [sys.executable, "-m", "detmom", "mc", "--dist", "normal", *argv],
            capture_output=True, env=fresh_env(**blas), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]
