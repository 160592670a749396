"""Watch a Monte-Carlo determinant-moment estimate converge to its exact value.

Doubles the sample count repeatedly and reports the estimate, its standard
error, and the studentized gap to the exact target when one is known.

Example:

    python scripts/mc_convergence.py --dist rademacher --k 4 --n 3
    python scripts/mc_convergence.py --dist normal --k 6 --n 2 --rounds 9
"""

from __future__ import annotations

import argparse

from detmom.cli import _build_dist, _worker_count
from detmom.sampling import mc_estimate


def run(args: argparse.Namespace) -> None:
    print(f"{'samples':>10}  {'estimate':>14}  {'std error':>12}  {'z':>8}")
    samples = args.start
    for _ in range(args.rounds):
        report = mc_estimate(
            args.dist, args.k, args.n,
            samples=samples, seed=args.seed, workers=args.workers,
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


def parse_args() -> argparse.Namespace:
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
        args.dist = _build_dist(args)
    except ValueError as exc:
        parser.error(str(exc))
    return args


if __name__ == "__main__":
    run(parse_args())
