"""Tabulate E[det(A)^k] for a chosen entry distribution against Gaussian entries.

Example:

    python scripts/moment_census.py --max-n 8
    python scripts/moment_census.py --values=-1,0,1 --probs=1/4,1/2,1/4 --max-n 6
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from fractions import Fraction

from detmom.cli import UsageError, _build_dist
from detmom.formulas import (
    fourth_moment,
    gaussian_det_moment,
    second_moment,
    sixth_moment_zero_mean,
)
from detmom.sampling import DistributionSpec, exact_moments


@dataclass
class CensusConfig:
    dist: DistributionSpec
    max_n: int
    powers: tuple[int, ...] = (2, 4, 6)


def census_row(config: CensusConfig, n: int) -> dict[int, Fraction | None]:
    moments = exact_moments(config.dist, 6)
    mean = moments[1]
    central = {
        2: moments[2] - mean ** 2,
        3: moments[3] - 3 * moments[2] * mean + 2 * mean ** 3,
        4: moments[4]
        - 4 * moments[3] * mean
        + 6 * moments[2] * mean ** 2
        - 3 * mean ** 4,
    }
    out: dict[int, Fraction | None] = {
        2: second_moment(n).evaluate({2: moments[2]}, mean),
        4: fourth_moment(n).evaluate(central, mean),
    }
    if mean == 0:
        out[6] = sixth_moment_zero_mean(n).evaluate(
            {r: moments[r] for r in range(2, 7)}, 0
        )
    else:
        out[6] = None
    return out


def run(config: CensusConfig) -> None:
    header = f"{'n':>3}"
    for k in config.powers:
        header += f"  {'E[det^%d]' % k:>18}  {'Gaussian':>14}  {'ratio':>10}"
    print(header)
    for n in range(config.max_n + 1):
        row = census_row(config, n)
        line = f"{n:>3}"
        for k in config.powers:
            value = row[k]
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
