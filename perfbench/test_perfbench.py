"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the root.

They run real detmom commands in fresh interpreters and take under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import golden
import run
from workloads import CLOSED_FORMS, MONTECARLO, PROBES, Command

# Small commands that together reach every traced layer, and the CROSSCHECK
# command, which alone reaches every layer.
COMMANDS = [
    ("closed", "--k", "4", "--n", "6", "--basis", "raw"),
    ("series", "--k", "6", "--central-only", "--order", "6"),
    ("oracle", "--k", "4", "--n", "4", "--workers", "2"),
    ("exhaustive", "--dist", "rademacher", "--k", "4", "--n", "3"),
    ("mc", "--dist", "normal", "--k", "4", "--n", "5", "--samples", "20000",
     "--seed", "3", "--workers", "2"),
    ("verify", "--suite", "all", "--seed", "3", "--workers", "2"),
]
VERIFY = COMMANDS[-1]
EXACT_COUNTS = ("tables.tables", "sampling.matrices", "poly.mul_calls", "poly.mul_pairs",
                "poly.objects", "formulas.cache_hits", "formulas.cache_misses",
                "verify.checks")


@pytest.fixture(scope="module")
def reports() -> dict:
    """Per command: one untraced and two traced reports."""
    return {
        argv: (run.run_command(list(argv), False),
               run.run_command(list(argv), True),
               run.run_command(list(argv), True))
        for argv in COMMANDS
    }


def _counts(report: dict) -> dict:
    return {k: v for k, v in report["layers"].items() if not k.endswith("_s")}


def test_traced_runs_repeat_exact_counts(reports):
    for argv, (_, first, second) in reports.items():
        assert _counts(first) == _counts(second), argv
    layers = reports[VERIFY][1]["layers"]
    assert all(layers.get(name) for name in EXACT_COUNTS), layers


def test_tracing_changes_no_output(reports):
    for argv, (plain, traced, _) in reports.items():
        assert plain["rc"] == traced["rc"] == 0, argv
        assert plain["stdout"] == traced["stdout"], argv


def test_every_per_layer_metric_is_measured(reports):
    spec = json.loads(run.SPEC_PATH.read_text())
    names = [m["name"] for m in spec["per_layer"] if m["name"] != run.OVERHEAD]
    traced = [run.CommandRun(Command(argv, "exit0"), r[1], None) for argv, r in reports.items()]
    metrics = run.layer_metrics(traced, names)
    assert [n for n, v in metrics.items() if not v] == ["verify.checks_failed"]


def test_spans_nest_and_self_times_fit_in_the_command(reports):
    traced = reports[VERIFY][1]
    spans = {s[0]: s for s in traced["spans"]}
    for span_id, parent, name, start, end in spans.values():
        assert start <= end, name
        if parent != -1:
            assert spans[parent][3] <= start and end <= spans[parent][4], name
    self_times = sum(v for k, v in traced["layers"].items()
                     if k.endswith("_s") and k not in ("sampling.target_s", "tables.oracle_cpu_s"))
    assert 0 < self_times <= traced["wall"]


def test_golden_check_rejects_changed_output():
    goldens = golden.load()
    command = CLOSED_FORMS[2]
    argv = command.argv(1, 0)
    report = run.run_command(argv, False)
    assert golden.check(command, argv, report["rc"], report["stdout"], goldens) is None
    assert golden.check(command, argv, report["rc"], report["stdout"] + " ", goldens)
    assert golden.check(command, argv, 1, report["stdout"], goldens)


def test_mc_check_needs_exact_target_and_five_standard_errors():
    goldens = golden.load()

    def check(command, estimate, exact=None, seed="7", std_error=1e6):
        argv = command.argv(2, 7)
        exact = goldens[command.key]["exact"] if exact is None else exact
        samples = argv[argv.index("--samples") + 1]
        stdout = (f"estimate   {estimate!r}\nstd_error  {std_error!r}\nsamples    {samples}\n"
                  f"seed       {seed}\nexact      {exact}\n")
        return golden.check(command, argv, 0, stdout, goldens)

    # No E[det^8] is known for this command: the band is 5 reported errors.
    command = MONTECARLO[0]
    assert "moment_2k" not in goldens[command.key]
    target = float(Fraction(goldens[command.key]["exact"]))
    assert check(command, target + 4.9e6) is None
    assert check(command, target - 5.1e6)
    assert check(command, float("nan"))
    assert check(command, target, exact="1")
    assert check(command, target, seed="8")

    # A probe's band is 5 exact standard errors, whatever mc reports.
    probe = PROBES["numeric"][0]
    exact = Fraction(goldens[probe.key]["exact"])
    sigma = math.sqrt((Fraction(goldens[probe.key]["moment_2k"]) - exact**2) / 20000)
    assert check(probe, float(exact) + 4.9 * sigma, std_error=1e-9) is None
    assert check(probe, float(exact) - 5.1 * sigma, std_error=1e9)

    # The heavy-tailed commands: the exact target is checked, the estimate not.
    heavy = MONTECARLO[1]
    assert heavy.check == "mc-target"
    assert check(heavy, 0.0) is None
    assert check(heavy, 0.0, exact="1")


def test_failed_check_is_counted_and_still_timed():
    command = Command(("closed", "--k", "2", "--n", "1"), "golden")
    goldens = {command.key: {"rc": 0, "sha256": "0" * 64, "bytes": 0}}
    (result,) = run.run_pass((command,), 1, 0, False, goldens, {})
    assert result.failure and result.report["wall"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.SPEC_PATH, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
