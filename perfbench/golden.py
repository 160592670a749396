"""Output checks against the outputs recorded in ``golden.json``.

Deterministic commands (``closed``, ``series``, ``oracle``, ``exhaustive``
and the budget refusals) must reproduce the recorded exit code and stdout
byte for byte; stdout is compared by its SHA-256 digest.  An ``mc`` command
must exit 0, echo its sample count and seed, report the recorded exact
target, and give a finite estimate.  For ``"mc"`` checks the estimate must
also lie within 5 standard errors of the target: exact ones, from the
recorded E[det^(2k)], where the CLI knows that moment, and the sample
standard error mc reports otherwise.  ``"mc-target"`` checks leave the
estimate unchecked: their det^k is so heavy-tailed at their sample count
that no known band of a few standard errors is both safe and informative
(see README.md).  ``verify`` must exit 0.

Run ``python3 perfbench/golden.py`` from the checkout root to record the
goldens again from the current source.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional

from workloads import PROBES, WORKLOADS, Command

GOLDEN_PATH = Path(__file__).resolve().with_name("golden.json")
MC_SIGMAS = 5


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def _mc_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return fields


def check(command: Command, argv: list[str], rc: int, stdout: str, golden: dict) -> Optional[str]:
    """Why the command's output is wrong, or None when it passes."""
    if command.check == "exit0":
        return None if rc == 0 else f"exit code {rc}, expected 0"
    want = golden[command.key]
    if command.check == "golden":
        if rc != want["rc"]:
            return f"exit code {rc}, expected {want['rc']}"
        if digest(stdout) != want["sha256"]:
            return f"stdout differs from the recorded {want['bytes']} bytes ({len(stdout.encode())} bytes)"
        return None
    if rc != 0:
        return f"exit code {rc}, expected 0"
    fields = _mc_fields(stdout)
    try:
        estimate = float(fields["estimate"])
        std_error = float(fields["std_error"])
        exact = Fraction(fields["exact"])
        samples, seed = int(fields["samples"]), int(fields["seed"])
    except (KeyError, ValueError) as exc:
        return f"unreadable mc output ({exc!r}): {stdout[:200]!r}"
    if str(exact) != want["exact"]:
        return f"exact target {exact}, expected {want['exact']}"
    if [str(samples), str(seed)] != [argv[argv.index("--samples") + 1], argv[argv.index("--seed") + 1]]:
        return f"mc echoed samples={samples} seed={seed}, not the requested ones"
    if not (math.isfinite(estimate) and math.isfinite(std_error)):
        return f"non-finite estimate {estimate} +/- {std_error}"
    if command.check == "mc-target":
        return None
    if "moment_2k" in want:
        std_error = math.sqrt(float(Fraction(want["moment_2k"]) - exact**2) / samples)
    gap = abs(estimate - float(exact))
    if gap > MC_SIGMAS * std_error:
        return f"estimate {estimate} is {gap / std_error:.2f} standard errors from {exact}"
    return None


def _doubled_moment(argv: list[str]) -> list[str]:
    """The mc command for E[det^(2k)], with a token sample count."""
    out = list(argv)
    out[out.index("--k") + 1] = str(2 * int(argv[argv.index("--k") + 1]))
    out[out.index("--samples") + 1] = "2"
    return out


def record(workers: int) -> dict:
    """Run every checked command once and return its goldens."""
    from run import run_command  # run imports this module

    out = {}
    for commands in (*WORKLOADS.values(), *PROBES.values()):
        for command in commands:
            if command.check == "exit0":
                continue
            argv = command.argv(workers, seed=0)
            report = run_command(argv, trace=False)
            if command.check == "golden":
                out[command.key] = {
                    "rc": report["rc"],
                    "sha256": digest(report["stdout"]),
                    "bytes": len(report["stdout"].encode()),
                }
                continue
            out[command.key] = {"exact": _mc_fields(report["stdout"])["exact"]}
            if command.check == "mc":
                doubled = _mc_fields(run_command(_doubled_moment(argv), trace=False)["stdout"])
                if "exact" in doubled:
                    out[command.key]["moment_2k"] = doubled["exact"]
    return out


if __name__ == "__main__":
    from run import default_workers

    GOLDEN_PATH.write_text(json.dumps(record(default_workers()), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
