"""Benchmark for detmom: real CLI commands, checked outputs, per-layer traces.

Run from the root of a checkout::

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Each command of a workload runs in a fresh interpreter (``child.py``), one
at a time, as a user's CLI call would.  The interpreter start and the import
of ``detmom.cli`` are timed as set-up; the call to ``detmom.cli.main`` is
timed as the command, and its stdout is checked (``golden.py``).  A pass
runs every command of the workload once; passes repeat until the next one
would end after ``--seconds``, and each metric is the median over passes.

With ``--trace 1`` every pass is followed by a traced pass, in which spans
wrap the calls into each detmom layer (``tracer.py``); the per-layer metrics
come from the traced passes, and ``trace.overhead_ratio`` compares each
traced pass with the untraced one before it.

The report, with quartiles beside each median and the machine stamp, goes to
stdout, and its last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, spans included, are written to
``perfbench/out/``.  The exit code is 0 when every output check passed, 1
when one failed, and 2 when the benchmark cannot run here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import golden
from workloads import PROBES, SUBCOMMANDS, WORKLOADS, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"
SPEC_PATH = ROOT / "BENCHMARK.json"
# A run ends within --seconds plus this, even when a command hangs.
GRACE_S = 120


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout or on this machine."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def default_workers() -> int:
    """W, the pool size given to pooled commands; never above nproc."""
    return min(2, nproc())


# -- one command -----------------------------------------------------------


def run_command(argv: list[str], trace: bool, timeout: float = GRACE_S) -> dict:
    """Run one CLI command in a fresh interpreter and return its report.

    The report is `child.py`'s, plus ``setup``: seconds from spawning the
    interpreter until ``detmom.cli`` was imported.  A child that crashes or
    runs past ``timeout`` seconds yields ``rc`` None and its stderr.
    """
    env = {k: v for k, v in os.environ.items() if k != "DETMOM_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    spec = json.dumps({"argv": argv, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), spec],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    # The child's pool workers share its session; killing the session's
    # process group stops them all.
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\ntimed out after {timeout:.0f} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    elapsed = time.monotonic() - spawned
    if proc.returncode != 0 or not stdout.strip():
        return {"rc": None, "stdout": "", "stderr": stderr[-2000:], "setup": 0.0,
                "wall": elapsed, "cpu": 0.0, "rss_kb": 0}
    report = json.loads(stdout.splitlines()[-1])
    if not Path(report["module"]).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"detmom was imported from {report['module']}, not from {SRC}")
    report["setup"] = report["ready"] - spawned
    return report


@dataclass
class CommandRun:
    command: Command
    report: dict
    failure: Optional[str]


def run_pass(commands: tuple[Command, ...], workers: int, seed: int, trace: bool,
             goldens: dict, first_stdout: dict[str, str],
             stop: float = float("inf")) -> list[CommandRun]:
    """Run and check each command once; any still running at ``stop`` fails.

    ``first_stdout`` maps a command to its stdout in the first pass of this
    run; every later pass, traced or not, must print the same.
    """
    runs = []
    for command in commands:
        argv = command.argv(workers, seed)
        report = run_command(argv, trace, min(GRACE_S, max(1.0, stop - time.monotonic())))
        if report["rc"] is None:
            tail = report["stderr"].strip().splitlines()
            failure = "crashed: " + (tail[-1] if tail else "no output")
        else:
            failure = golden.check(command, argv, report["rc"], report["stdout"], goldens)
            if report["stdout"] != first_stdout.setdefault(command.key, report["stdout"]):
                failure = failure or "stdout differs from this command's first pass"
        runs.append(CommandRun(command, report, failure))
    return runs


# -- metrics ---------------------------------------------------------------


def pass_metrics(runs: list[CommandRun]) -> dict[str, float]:
    """End-to-end metrics of one pass; splits only for subcommands it ran."""
    out = {
        "wall_s": sum(r.report["wall"] for r in runs),
        "cpu_s": sum(r.report["cpu"] for r in runs),
        "peak_rss_mb": max(r.report["rss_kb"] for r in runs) / 1024,
    }
    for sub in SUBCOMMANDS:
        times = [r.report["wall"] for r in runs if r.command.subcommand == sub]
        if times:
            out[f"{sub}_s"] = sum(times)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs: list[CommandRun], names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: tracer totals and their ratios."""
    t: Counter = Counter()
    for r in runs:
        t.update(r.report.get("layers", {}))
    derived = {
        "tables.cpu_s": t["tables.oracle_cpu_s"],
        "tables.tables_per_s": _ratio(t["tables.tables"], t["tables.oracle_s"]),
        "tables.cpu_per_wall": _ratio(t["tables.oracle_cpu_s"], t["tables.oracle_s"]),
        "sampling.matrices_per_s": _ratio(t["sampling.matrices"], t["sampling.exhaustive_s"]),
        "sampling.samples_per_s": _ratio(t["sampling.samples"], t["sampling.draw_s"]),
    }
    return {name: derived.get(name, t[name]) for name in names}


def summarize(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, n=4) of the values."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# -- a workload ------------------------------------------------------------


OVERHEAD = "trace.overhead_ratio"


def _command_row(r: CommandRun) -> dict:
    return {"command": r.command.key, "trace": r.report.get("layers") is not None,
            **{k: r.report[k] for k in ("setup", "wall", "cpu", "rss_kb", "rc")},
            "failure": r.failure}


def measure(name: str, seed: int, seconds: float, trace: bool, workers: int,
            goldens: dict, layer_names: list[str]) -> dict:
    """Check the workload's probes, then run passes of it for about
    ``seconds`` and summarise them."""
    commands = WORKLOADS[name]
    first_stdout: dict[str, str] = {}
    probes = run_pass(PROBES.get(name, ()), workers, seed, False, goldens, first_stdout)
    deadline = time.monotonic() + seconds
    stop = deadline + GRACE_S
    plain_passes: list[list[CommandRun]] = []
    traced_passes: list[list[CommandRun]] = []
    durations = []
    while True:
        started = time.monotonic()
        plain_passes.append(
            run_pass(commands, workers, seed, False, goldens, first_stdout, stop))
        if trace:
            traced_passes.append(
                run_pass(commands, workers, seed, True, goldens, first_stdout, stop))
        durations.append(time.monotonic() - started)
        if time.monotonic() + statistics.median(durations) > deadline:
            break

    runs = [r for p in plain_passes + traced_passes for r in p]
    failures = [f"{r.command.key}: {r.failure}" for r in probes + runs if r.failure]
    per_pass = [pass_metrics(p) for p in plain_passes]
    if trace:
        names = [n for n in layer_names if n != OVERHEAD]
        per_layer = [layer_metrics(p, names) for p in traced_passes]
        metrics = {n: summarize([m[n] for m in per_layer]) for n in names}
        metrics[OVERHEAD] = summarize([
            pass_metrics(t)["wall_s"] / pass_metrics(p)["wall_s"]
            for p, t in zip(plain_passes, traced_passes)
        ])
    else:
        metrics = {"setup_s": summarize([r.report["setup"] for r in runs])}
        metrics.update({n: summarize([m[n] for m in per_pass]) for n in per_pass[0]})
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(plain_passes),
        "attempted": len(probes) + len(runs),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "versions": next((r.report["versions"] for r in runs if "versions" in r.report), {}),
        "probes": [_command_row(r) for r in probes],
        "commands": [[_command_row(r) for r in p] for p in plain_passes + traced_passes],
        "spans": {
            f"pass{i}.cmd{j}": r.report.get("spans", [])
            for i, p in enumerate(traced_passes) for j, r in enumerate(p)
        },
    }


# -- stamp and report ------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return f"unknown ({ref})"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(workers: int, seed: int, seconds: int) -> dict:
    return {
        "nproc": nproc(),
        "workers": workers,
        "cpu": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "seconds": seconds,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_lines(result: dict, stamp_: dict, spec: dict) -> list[str]:
    """Every metric of the run by name and unit, median beside quartiles."""
    attempted, failed = result["attempted"], result["failed"]
    machine = {**stamp_, **result["versions"]}
    lines = [
        f"== detmom benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']} passes={result['passes']}",
        "   " + " ".join(f"{k}={v}" for k, v in machine.items() if k != "seed"),
        f"   {'metric':<26} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12}  n",
    ]
    if result["trace"]:
        rows = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        rows += [(f"{sub}_s", "s") for sub in SUBCOMMANDS]
    for name, unit in rows:
        m = result["metrics"].get(name)
        if m is None:
            lines.append(f"   {name:<26} {unit:<6} {'not run by this workload':>38}")
        else:
            lines.append(f"   {name:<26} {unit:<6} {_fmt(m['median']):>12} "
                         f"{_fmt(m['q1']):>12} {_fmt(m['q3']):>12}  {m['n']}")
    lines.append(f"   {'failed_ratio':<26} {'ratio':<6} {_fmt(failed / attempted):>12} "
                 f"  ({failed} of {attempted} commands failed a check)")
    lines.extend(f"   FAILED {f}" for f in result["failures"])
    return lines


def result_line(results: list[dict], spec: dict) -> dict:
    """The result line: end-to-end or per-layer medians, with the check counts."""
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for m in spec["per_layer" if result["trace"] else "end_to_end"]:
            metrics[prefix + m["name"]] = {
                "value": result["metrics"][m["name"]]["median"], "unit": m["unit"]}
    return {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


# -- entry point -----------------------------------------------------------


def parse_args(argv: Optional[list[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit, so that a running command is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workers = default_workers()
    try:
        if not (SRC / "detmom" / "cli.py").is_file():
            raise BenchmarkError(f"no detmom source under {SRC}")
        if args.seconds < 1:
            raise BenchmarkError("--seconds must be at least 1")
        spec = json.loads(SPEC_PATH.read_text())
        goldens = golden.load()
        # Untimed: compile bytecode and warm the file cache, as a user's
        # repeated CLI calls would find them.
        subprocess.run([sys.executable, "-c", "import detmom.cli"], cwd=ROOT, check=True,
                       env={**os.environ, "PYTHONPATH": str(SRC)})
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        layer_names = [m["name"] for m in spec["per_layer"]]
        results = [measure(n, args.seed, args.seconds, bool(args.trace), workers, goldens,
                           layer_names) for n in names]
    except (BenchmarkError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    the_stamp = stamp(workers, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    for result in results:
        for line in report_lines(result, the_stamp, spec):
            print(line)
        path = OUT / f"{result['workload']}.trace{result['trace']}.json"
        path.write_text(json.dumps({"stamp": the_stamp, **result}))
    summary = result_line(results, spec)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
