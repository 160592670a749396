"""Tabulate E[det(A)^k] for a chosen entry distribution against Gaussian entries.

Example:

    python scripts/moment_census.py --max-n 8
    python scripts/moment_census.py --values=-1,0,1 --probs=1/4,1/2,1/4 --max-n 6
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from detmom.cli import UsageError, _build_dist
from detmom.formulas import gaussian_det_moment
from detmom.sampling import DistributionSpec, exact_moment_target


@dataclass
class CensusConfig:
    dist: DistributionSpec
    max_n: int
    powers: tuple[int, ...] = (2, 4, 6)


def run(config: CensusConfig) -> None:
    header = f"{'n':>3}"
    for k in config.powers:
        header += f"  {'E[det^%d]' % k:>18}  {'Gaussian':>14}  {'ratio':>10}"
    print(header)
    for n in range(config.max_n + 1):
        line = f"{n:>3}"
        for k in config.powers:
            value = exact_moment_target(config.dist, k, n)
            gauss = gaussian_det_moment(k, n) if k % 2 == 0 else None
            if value is None:
                line += f"  {'-':>18}  {str(gauss):>14}  {'-':>10}"
                continue
            ratio = "-" if gauss in (None, 0) else f"{float(value / gauss):.4f}"
            line += f"  {str(value):>18}  {str(gauss):>14}  {ratio:>10}"
        print(line)


def parse_args() -> CensusConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--values", default=None,
                        help="comma-separated support (default: Rademacher)")
    parser.add_argument("--probs", default=None,
                        help="comma-separated probabilities")
    args = parser.parse_args()
    args.dist = "rademacher" if args.values is None else "discrete"
    try:
        dist = _build_dist(args)
    except UsageError as exc:
        parser.error(str(exc))
    return CensusConfig(dist=dist, max_n=args.max_n)


if __name__ == "__main__":
    run(parse_args())
