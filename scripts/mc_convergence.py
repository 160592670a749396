"""Watch a Monte-Carlo determinant-moment estimate converge to its exact value.

Doubles the sample count repeatedly and reports the estimate, its standard
error, and the studentized gap to the exact target when one is known.

Example:

    python scripts/mc_convergence.py --dist rademacher --k 4 --n 3
    python scripts/mc_convergence.py --dist normal --k 6 --n 2 --rounds 9
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from detmom.cli import UsageError, _build_dist, _worker_count
from detmom.sampling import DistributionSpec, mc_estimate


@dataclass
class ConvergenceConfig:
    dist: DistributionSpec
    k: int
    n: int
    seed: int = 0
    start: int = 1000
    rounds: int = 8
    workers: int = 1


def run(config: ConvergenceConfig) -> None:
    print(f"{'samples':>10}  {'estimate':>14}  {'std error':>12}  {'z':>8}")
    samples = config.start
    for _ in range(config.rounds):
        report = mc_estimate(
            config.dist,
            config.k,
            config.n,
            samples=samples,
            seed=config.seed,
            workers=config.workers,
        )
        if report.exact_target is None or report.std_error == 0:
            z = "-"
        else:
            gap = report.estimate - float(report.exact_target)
            z = f"{gap / report.std_error:+.2f}"
        print(
            f"{samples:>10}  {report.estimate:>14.6f}  "
            f"{report.std_error:>12.6f}  {z:>8}"
        )
        samples *= 2
    if report.exact_target is not None:
        print(f"exact target: {report.exact_target}")


def parse_args() -> ConvergenceConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dist", choices=("rademacher", "normal", "discrete"),
                        default="rademacher")
    parser.add_argument("--values", default=None)
    parser.add_argument("--probs", default=None)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--start", type=int, default=1000)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--workers", type=_worker_count, default=1)
    args = parser.parse_args()
    try:
        dist = _build_dist(args)
    except UsageError as exc:
        parser.error(str(exc))
    return ConvergenceConfig(
        dist=dist, k=args.k, n=args.n, seed=args.seed,
        start=args.start, rounds=args.rounds, workers=args.workers,
    )


if __name__ == "__main__":
    run(parse_args())
