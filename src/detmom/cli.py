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
verification failure, 2 budget refusal, 64 usage error or a Monte-Carlo
sum beyond float64 range, 141 stdout closed early (a pipe into ``head``).
The environment variable ``DETMOM_BUDGET`` overrides the default budgets
of ``oracle``, ``exhaustive`` and ``mc``.

Importing this module sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 where they are unset, before numpy loads.  An
idle OpenBLAS worker thread would otherwise spin while each command starts
and runs.  detmom's only LAPACK calls are batched determinants of matrices
of at most 60x60, which OpenBLAS runs on one thread anyway, and its parallel
work runs in its own process pool (``--workers``).  A value already set in
the environment is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

# Before `.sampling` imports numpy, which starts OpenBLAS (module docstring).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import BudgetExceededError, _check_kn
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
from .poly import DENSE_ORDER, Basis, MomentPolynomial, central_to_raw, raw_to_central
from .sampling import (
    DEFAULT_SAMPLES,
    DistributionSpec,
    exhaustive_moment,
    mc_estimate,
)
from .series import TruncatedEGF
from .tables import TableMode, oracle_moment
from .verify import MC_SAMPLES, MC_SEED, SUITES, run_suite

MAX_SERIES_ORDER = 64


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise UsageError(message)


def _budget(args: argparse.Namespace) -> Optional[int]:
    budget = args.budget
    raw = os.environ.get("DETMOM_BUDGET")
    if budget is None and raw is not None:
        try:
            budget = int(raw)
        except ValueError as exc:
            raise UsageError(f"DETMOM_BUDGET must be an integer, got {raw!r}") from exc
    if budget is not None and budget < 0:
        raise UsageError(f"the budget must be nonnegative, got {budget}")
    return budget


def _worker_count(text: str) -> int:
    """A ``--workers`` value: from 1 to the number of CPUs."""
    most = os.cpu_count() or 1
    try:
        count = int(text)
    except ValueError:
        count = 0
    if not 1 <= count <= most:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 1 to {most}, got {text!r}"
        )
    return count


def _print_json(data, indent: Optional[int] = None) -> None:
    # The documents are trees, so the check for reference cycles is skipped.
    print(json.dumps(data, indent=indent, check_circular=False))


def _print(result: MomentPolynomial | TruncatedEGF, fmt: str, *json_args) -> None:
    if fmt == "json":
        _print_json(result.to_json_dict(*json_args))
    else:
        print(result.to_text())


def _print_value(value: Fraction, fmt: str, **fields) -> None:
    if fmt == "json":
        _print_json({**fields, "value": str(value)})
    else:
        print(value)


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
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"could not parse {what}: {exc}") from exc


def _build_dist(args: argparse.Namespace) -> DistributionSpec:
    if args.dist != "discrete" and (args.values is not None or args.probs is not None):
        raise UsageError(f"--dist {args.dist} takes no --values or --probs")
    if args.dist == "rademacher":
        return DistributionSpec.rademacher()
    if args.dist == "normal":
        return DistributionSpec.std_normal()
    if args.values is None or args.probs is None:
        raise UsageError("--dist discrete needs --values and --probs")
    values = _parse_fractions(args.values, "--values")
    probs = _parse_fractions(args.probs, "--probs")
    return DistributionSpec.discrete(values, probs)


def _check_central_only(args: argparse.Namespace, what: str) -> None:
    if not args.central_only:
        raise UsageError(
            f"the k=6 {what} assumes centered entries; acknowledge with --central-only"
        )


def _cmd_closed(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    if args.gaussian:
        if args.k % 2:
            raise UsageError("--gaussian needs an even k")
        _print_value(gaussian_det_moment(args.k, args.n), args.format, k=args.k, n=args.n)
        return 0
    # Built per call, so a builder wrapped at run time is the one called.
    forms = {2: second_moment, 4: fourth_moment, 6: sixth_moment_zero_mean}
    if args.k not in forms:
        raise UsageError(
            "no closed form for k={}; supported: k=2, k=4, k=6 --central-only, "
            "or --gaussian for any even k".format(args.k)
        )
    if args.k == 6:
        _check_central_only(args, "closed form")
    _print(_convert_basis(forms[args.k](args.n), args.basis), args.format)
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.k is not None:
        _check_kn(args.k)
    if not 0 <= args.order <= MAX_SERIES_ORDER:
        raise UsageError(f"order must be between 0 and {MAX_SERIES_ORDER}")
    # Built per call, as in `_cmd_closed`.
    builders = {
        "f2": second_moment_egf,
        "f4": fourth_moment_egf,
        "f6": sixth_moment_zero_mean_egf,
        "n6": gaussian_sixth_egf,
        **{m.value: partial(mark_class_egf, m) for m in MarkClass},
    }
    which = args.which or f"f{args.k}"
    if which not in builders:
        raise UsageError("series are available for k in {2, 4, 6} or via --which")
    if which == "f6":
        _check_central_only(args, "series")
    _print(builders[which](args.order), args.format)
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
    progress = _progress_printer() if sys.stderr.isatty() else None
    p = oracle_moment(
        args.k,
        args.n,
        mode=mode,
        budget=_budget(args),
        workers=args.workers,
        progress=progress,
    )
    # The JSON vectors hold a slot for every column weight up to k, even
    # where no term uses it.
    _print(p, args.format, max(DENSE_ORDER, args.k))
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    dist = _build_dist(args)
    progress = _progress_printer("blocks") if sys.stderr.isatty() else None
    report = mc_estimate(
        dist,
        args.k,
        args.n,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        budget=_budget(args),
        progress=progress,
    )
    if args.format == "json":
        _print_json(report.to_json_dict())
    else:
        for field, value in report.to_json_dict().items():
            print(f"{field.removesuffix('_target'):<11}{value}")
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    _check_kn(args.k, args.n)
    value = exhaustive_moment(_build_dist(args), args.k, args.n, budget=_budget(args))
    _print_value(value, args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_suite(
        args.suite, workers=args.workers, seed=args.seed, samples=args.samples
    )
    if args.format == "json":
        _print_json(report.to_json_dict(), indent=2)
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

    def add_workers(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=_worker_count, default=os.cpu_count() or 1)

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
    pick = p.add_mutually_exclusive_group()
    pick.add_argument("--k", type=int, default=None)
    pick.add_argument(
        "--which",
        choices=("f2", "f4", "f6", "n6", *(m.value for m in MarkClass)),
        default=None,
    )
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--central-only", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_series)

    p = sub.add_parser("oracle", help="brute-force table enumeration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("plain", "marked"), default="plain")
    p.add_argument("--budget", type=int, default=None)
    add_workers(p)
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
    p.add_argument("--budget", type=int, default=None)
    add_workers(p)
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
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=MC_SEED)
    p.add_argument("--samples", type=int, default=MC_SAMPLES)
    add_workers(p)
    add_format(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # As the Python docs advise for SIGPIPE: send what is still buffered
        # to devnull, so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
