"""Command-line interface.

Subcommands:

* ``closed``     -- closed-form E[det(A)^k] for k in {2, 4}, k = 6 with
                    ``--central-only`` (centered entries), or the Gaussian
                    product value via ``--gaussian`` for any even k.
* ``series``     -- generating functions, dumped coefficient by coefficient.
* ``oracle``     -- brute-force permutation-table enumeration.
* ``mc``         -- Monte-Carlo estimate with exact target when known.
* ``exhaustive`` -- exact average over every matrix with finite support.
* ``verify``     -- cross-check suites; exit 1 on any mismatch.

Results go to stdout, progress to stderr.  Exit codes: 0 success, 1
verification failure, 2 budget refusal, 64 usage error.  The environment
variable ``DETMOM_BUDGET`` overrides the default enumeration budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BudgetExceededError
from .formulas import (
    MarkClass,
    fourth_moment,
    fourth_moment_egf,
    gaussian_det_moment,
    gaussian_sixth_egf,
    mark_class_egf,
    second_moment,
    second_moment_egf,
    sixth_moment_zero_mean,
    sixth_moment_zero_mean_egf,
)
from .poly import Basis, MomentPolynomial, central_to_raw, raw_to_central
from .sampling import (
    DEFAULT_SAMPLES,
    DistributionSpec,
    exhaustive_moment,
    mc_estimate,
)
from .series import TruncatedEGF
from .tables import Reduction, TableMode, oracle_moment
from .verify import MC_SAMPLES, MC_SEED, SUITES, run_suite

MAX_SERIES_ORDER = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _env_budget() -> Optional[int]:
    raw = os.environ.get("DETMOM_BUDGET")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise UsageError(f"DETMOM_BUDGET must be an integer, got {raw!r}") from exc


def _check_kn(k: int, n: Optional[int] = None, order: Optional[int] = None) -> None:
    if k < 1:
        raise UsageError("k must be at least 1")
    if n is not None and n < 0:
        raise UsageError("n must be nonnegative")
    if order is not None and not 0 <= order <= MAX_SERIES_ORDER:
        raise UsageError(f"order must be between 0 and {MAX_SERIES_ORDER}")


def _print_poly(p: MomentPolynomial, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(p.to_json_dict()))
    else:
        print(p.to_text())


def _print_series(s: TruncatedEGF, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(s.to_json_dict()))
    else:
        print(s.to_text())


def _convert_basis(p: MomentPolynomial, target: Optional[str]) -> MomentPolynomial:
    if target is None:
        return p
    want = Basis(target)
    if p.basis is want:
        return p
    return central_to_raw(p) if want is Basis.RAW else raw_to_central(p)


def _parse_fractions(text: str, what: str) -> list[Fraction]:
    try:
        return [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"could not parse {what}: {exc}") from exc


def _build_dist(args: argparse.Namespace) -> DistributionSpec:
    if args.dist == "rademacher":
        return DistributionSpec.rademacher()
    if args.dist == "normal":
        return DistributionSpec.std_normal()
    if args.values is None or args.probs is None:
        raise UsageError("--dist discrete needs --values and --probs")
    values = _parse_fractions(args.values, "--values")
    probs = _parse_fractions(args.probs, "--probs")
    try:
        return DistributionSpec.discrete(values, probs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_closed(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    if args.gaussian:
        if args.k % 2:
            raise UsageError("--gaussian needs an even k")
        value = gaussian_det_moment(args.k, args.n)
        if args.format == "json":
            print(json.dumps({"k": args.k, "n": args.n, "value": str(value)}))
        else:
            print(value)
        return 0
    if args.k == 2:
        p = second_moment(args.n)
    elif args.k == 4:
        p = fourth_moment(args.n)
    elif args.k == 6:
        if not args.central_only:
            raise UsageError(
                "the k=6 closed form assumes centered entries; "
                "acknowledge with --central-only"
            )
        p = sixth_moment_zero_mean(args.n)
    else:
        raise UsageError(
            "no closed form for k={}; supported: k=2, k=4, k=6 --central-only, "
            "or --gaussian for any even k".format(args.k)
        )
    _print_poly(_convert_basis(p, args.basis), args.format)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    _check_kn(args.k or 2, order=args.order)
    which = args.which
    if which is None:
        if args.k == 2:
            which = "f2"
        elif args.k == 4:
            which = "f4"
        elif args.k == 6:
            which = "f6"
        else:
            raise UsageError("series are available for k in {2, 4, 6} or via --which")
    if which == "f2":
        s = second_moment_egf(args.order)
    elif which == "f4":
        s = fourth_moment_egf(args.order)
    elif which == "f6":
        if not args.central_only:
            raise UsageError(
                "the k=6 series assumes centered entries; acknowledge with --central-only"
            )
        s = sixth_moment_zero_mean_egf(args.order)
    elif which == "n6":
        s = gaussian_sixth_egf(args.order)
    else:
        s = mark_class_egf(MarkClass(which), args.order)
    _print_series(s, args.format)
    return 0


def _progress_printer(total_label: str = "tables"):
    def advance(done: int, total: int) -> None:
        print(f"\r{done}/{total} {total_label}", end="", file=sys.stderr, flush=True)
        if done >= total:
            print(file=sys.stderr)

    return advance


def _cmd_oracle(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    mode = TableMode(args.mode)
    reduction = None if args.reduce == "auto" else Reduction(args.reduce)
    budget = args.budget if args.budget is not None else _env_budget()
    progress = _progress_printer() if sys.stderr.isatty() else None
    p = oracle_moment(
        args.k,
        args.n,
        mode=mode,
        reduction=reduction,
        budget=budget,
        workers=args.workers,
        progress=progress,
    )
    _print_poly(p, args.format)
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    dist = _build_dist(args)
    report = mc_estimate(
        dist, args.k, args.n, samples=args.samples, seed=args.seed, workers=args.workers
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(f"estimate   {report.estimate!r}")
        print(f"std_error  {report.std_error!r}")
        print(f"samples    {report.samples}")
        print(f"seed       {report.seed}")
        if report.exact_target is not None:
            print(f"exact      {report.exact_target}")
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    dist = _build_dist(args)
    if not dist.finite:
        raise UsageError("exhaustive averaging needs a finite support")
    budget = args.budget if args.budget is not None else _env_budget()
    value = exhaustive_moment(dist, args.k, args.n, budget=budget)
    if args.format == "json":
        print(json.dumps({"value": str(value)}))
    else:
        print(value)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(
        args.suite, workers=args.workers, seed=args.seed, samples=args.samples
    )
    if args.format == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for c in report.checks:
            tag = "PASS" if c.passed else "FAIL"
            print(f"{tag} {c.name}")
        print(f"{'PASS' if report.ok else 'FAIL'} suite={report.suite} "
              f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")
    if not report.ok:
        first = report.first_failure()
        print(
            f"first failing identity: {first.name}\n"
            f"  expected: {first.expected}\n"
            f"  got:      {first.got}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="detmom", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("closed", help="closed-form determinant moments")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=("raw", "central"), default=None)
    p.add_argument("--gaussian", action="store_true",
                   help="standard normal entries; any even k")
    p.add_argument("--central-only", action="store_true",
                   help="accept that the k=6 form assumes centered entries")
    add_format(p)
    p.set_defaults(fn=_cmd_closed)

    p = sub.add_parser("series", help="generating functions, truncated")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--order", type=int, default=8)
    p.add_argument(
        "--which",
        choices=("f2", "f4", "f6", "n6", "mark0", "mark2",
                 "mark4-single", "mark4-split", "mark4"),
        default=None,
    )
    p.add_argument("--central-only", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("oracle", help="brute-force table enumeration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("plain", "marked"), default="plain")
    p.add_argument("--reduce", choices=("auto", "full", "first-row"), default="auto")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    add_format(p)
    p.set_defaults(fn=_cmd_oracle)

    def add_dist(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dist", choices=("rademacher", "normal", "discrete"),
                       required=True)
        p.add_argument("--values", default=None,
                       help="comma-separated rationals for --dist discrete")
        p.add_argument("--probs", default=None,
                       help="comma-separated rationals summing to 1")

    p = sub.add_parser("mc", help="Monte-Carlo estimate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_dist(p)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    add_format(p)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("exhaustive", help="exact average over all matrices")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_dist(p)
    p.add_argument("--budget", type=int, default=None)
    add_format(p)
    p.set_defaults(fn=_cmd_exhaustive)

    p = sub.add_parser("verify", help="cross-check suites")
    p.add_argument("--suite", choices=tuple(SUITES), default="all")
    p.add_argument("--seed", type=int, default=MC_SEED)
    p.add_argument("--samples", type=int, default=MC_SAMPLES)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
