"""Tabulate E[det(A)^k] for a chosen entry distribution against Gaussian entries.

Example:

    python scripts/moment_census.py --max-n 8
    python scripts/moment_census.py --values=-1,0,1 --probs=1/4,1/2,1/4 --max-n 6
"""

from __future__ import annotations

import argparse

from detmom.cli import _build_dist
from detmom.formulas import gaussian_det_moment
from detmom.sampling import exact_moment_target

POWERS = (2, 4, 6)


def run(args: argparse.Namespace) -> None:
    header = f"{'n':>3}"
    for k in POWERS:
        header += f"  {'E[det^%d]' % k:>18}  {'Gaussian':>14}  {'ratio':>10}"
    print(header)
    for n in range(args.max_n + 1):
        line = f"{n:>3}"
        for k in POWERS:
            value = exact_moment_target(args.dist, k, n)
            gauss = gaussian_det_moment(k, n) if k % 2 == 0 else None
            if value is None:
                line += f"  {'-':>18}  {str(gauss):>14}  {'-':>10}"
                continue
            ratio = "-" if gauss in (None, 0) else f"{float(value / gauss):.4f}"
            line += f"  {str(value):>18}  {str(gauss):>14}  {ratio:>10}"
        print(line)


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--values", default=None,
                        help="comma-separated support (default: Rademacher)")
    parser.add_argument("--probs", default=None,
                        help="comma-separated probabilities")
    args = parser.parse_args()
    args.dist = "rademacher" if args.values is None and args.probs is None else "discrete"
    try:
        args.dist = _build_dist(args)
    except ValueError as exc:
        parser.error(str(exc))
    return args


if __name__ == "__main__":
    run(parse_args())
