"""Run commands one after another and bound the peak memory of their processes.

    python scripts/peak_rss.py --limit-mb 100 \\
        "python -m detmom mc --dist normal --k 2 --n 60 --samples 8192 --workers 2"

Each command runs under a 120-second timeout.  The peak is the largest
resident set size of any process a command started and waited for, pool
workers included (`RUSAGE_CHILDREN` ``ru_maxrss``, read in KiB as Linux
reports it).  It is printed after each command, as the largest so far.
Exits 1 if a command fails or times out, or the peak exceeds the limit.
"""

from __future__ import annotations

import argparse
import resource
import shlex
import subprocess
import sys

TIMEOUT_S = 120


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit-mb", type=float, required=True)
    parser.add_argument("commands", nargs="+", help="each one a quoted command line")
    args = parser.parse_args(argv)
    for command in args.commands:
        try:
            code = subprocess.run(
                shlex.split(command), stdout=subprocess.DEVNULL, timeout=TIMEOUT_S
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"timed out after {TIMEOUT_S} s: {command}", file=sys.stderr)
            return 1
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        print(f"{peak_mb:7.1f} MB peak so far  {command}")
        if code:
            print(f"exit {code}: {command}", file=sys.stderr)
            return 1
    if peak_mb > args.limit_mb:
        print(f"peak {peak_mb:.1f} MB exceeds {args.limit_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
