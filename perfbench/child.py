"""Run one detmom CLI command in this fresh interpreter and report on it.

Usage: ``python3 child.py '<json spec>'`` with ``PYTHONPATH`` pointing at the
checkout's ``src``.  The spec holds ``argv`` (the CLI arguments) and
``trace`` (whether to install `tracer.Tracer`).  The command's stdout and
stderr are captured; the last line of this process's stdout is one JSON
object with the import-done time on the monotonic clock, the time and CPU
spent inside ``detmom.cli.main``, the peak RSS, the exit code and the
captured output, plus per-layer totals and spans when traced.
"""

import sys
import time

import detmom.cli

READY = time.monotonic()

import contextlib  # noqa: E402  (imported after the timed import above)
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer, cpu_seconds  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    entry = detmom.cli.main
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)
    out, err = io.StringIO(), io.StringIO()
    cpu0 = cpu_seconds()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = entry(spec["argv"])
        wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    report = {
        "ready": READY,
        "module": detmom.cli.__file__,
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        },
        "wall": wall,
        "cpu": cpu,
        "rss_kb": rss_kb,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_totals()
        report["spans"] = tracer.spans
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
