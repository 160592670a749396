"""Cross-verification suites tying the oracle, formulas, series, and sampler.

Each check compares two independently computed quantities and keeps both;
their canonical text (``str``) is rendered only when it is read, by the
JSON report or a failure message, so a passing check in a text report
renders nothing.  Polynomial and series checks are exact; Monte-Carlo checks
accept anything within five standard errors of the exact target.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formulas import (
    MarkClass,
    fourth_moment,
    fourth_moment_egf,
    fourth_moment_zero_mean,
    gaussian_det_moment,
    gaussian_moment_table,
    gaussian_sixth_egf,
    mark_class_egf,
    second_moment,
    second_moment_egf,
    sixth_moment_zero_mean,
    sixth_moment_zero_mean_egf,
)
from .poly import Basis, MomentPolynomial, central_to_raw
from .sampling import DistributionSpec, exhaustive_moment, mc_estimate
from .series import TruncatedEGF, polynomial_in_t, t_times
from .tables import TableMode, oracle_moment

MC_SEED = 20260823
MC_SAMPLES = 100_000
MC_SIGMAS = 5.0


@dataclass
class CheckResult:
    """One comparison: the two sides compared, whose text is their ``str``."""

    name: str
    expected: object
    got: object
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": str(self.expected),
            "got": str(self.got),
            "pass": self.passed,
        }


@dataclass
class VerificationReport:
    suite: str
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "pass": self.ok,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _series_check(name: str, expected: TruncatedEGF, got: TruncatedEGF) -> CheckResult:
    order = min(expected.order, got.order)
    for d in range(order + 1):
        a, b = expected.coefficient(d), got.coefficient(d)
        if a != b:
            return CheckResult(f"{name}[t^{d}]", a, b, False)
    return CheckResult(name, f"agree to order {order}", f"agree to order {order}", True)


def _value_check(name: str, expected, got) -> CheckResult:
    return CheckResult(name, expected, got, expected == got)


def _structure_checks(name: str, p: MomentPolynomial, k: int, n: int) -> list[CheckResult]:
    out = [
        _value_check(f"{name} grading weight", {k * n}, p.grading_weights()),
    ]
    if k % 2 == 0:
        out.append(
            _value_check(f"{name} sign symmetry", p, p.negate_entries())
        )
    return out


# -- fixed small examples --------------------------------------------------


def _frozen_f2_2() -> MomentPolynomial:
    return MomentPolynomial(
        Basis.RAW,
        {
            (0, 0, 2, 0, 0, 0, 0, 0, 0): Fraction(2),
            (4, 0, 0, 0, 0, 0, 0, 0, 0): Fraction(-2),
        },
    )


def _frozen_f4_2_raw() -> MomentPolynomial:
    return MomentPolynomial(
        Basis.RAW,
        {
            (0, 0, 0, 0, 2, 0, 0, 0, 0): Fraction(2),
            (2, 0, 0, 2, 0, 0, 0, 0, 0): Fraction(-8),
            (0, 0, 4, 0, 0, 0, 0, 0, 0): Fraction(6),
        },
    )


def _frozen_f4_2_central() -> MomentPolynomial:
    # 2! times the nine-class marked-table expansion at n = 2.
    def mono(coef, m1, mu2, mu3, mu4):
        return MomentPolynomial.monomial(
            coef, {1: m1, 2: mu2, 3: mu3, 4: mu4}, Basis.CENTRAL
        )

    classes = [
        mono(1, 0, 0, 0, 2),
        mono(3, 0, 4, 0, 0),
        mono(8, 1, 0, 1, 1),
        mono(12, 2, 1, 0, 1),
        mono(12, 2, 3, 0, 0),
        mono(12, 2, 0, 2, 0),
        mono(24, 3, 1, 1, 0),
        mono(2, 4, 0, 0, 1),
        mono(18, 4, 2, 0, 0),
    ]
    total = MomentPolynomial.zero(Basis.CENTRAL)
    for c in classes:
        total = total + c
    return 2 * total


# -- suites ----------------------------------------------------------------
# Every suite takes the same keyword arguments, so `run_suite` can call
# `suite_<name>` for any name in `SUITES`; a suite ignores the ones it does
# not use.


def suite_small(
    *, workers: int = 1, seed: int = MC_SEED, samples: int = MC_SAMPLES
) -> VerificationReport:
    checks: list[CheckResult] = []

    checks.append(
        _value_check("oracle f_2(2)", _frozen_f2_2(), oracle_moment(2, 2, workers=workers))
    )
    m1 = MomentPolynomial.monomial(1, {1: 1}, Basis.RAW)
    m2 = MomentPolynomial.monomial(1, {2: 1}, Basis.RAW)
    checks.append(
        _value_check(
            "oracle f_2(3)",
            6 * (m2 + 2 * m1**2) * (m2 - m1**2) ** 2,
            oracle_moment(2, 3, workers=workers),
        )
    )
    checks.append(
        _value_check(
            "oracle f_4(2)", _frozen_f4_2_raw(), oracle_moment(4, 2, workers=workers)
        )
    )
    checks.append(
        _value_check(
            "marked oracle f_4(2)",
            _frozen_f4_2_central(),
            oracle_moment(4, 2, mode=TableMode.MARKED, workers=workers),
        )
    )

    for k, sizes, closed, centred in (
        (2, 7, second_moment, False),
        (4, 5, lambda n: central_to_raw(fourth_moment(n)), False),
        (6, 4, sixth_moment_zero_mean, True),
    ):
        for n in range(sizes):
            got = oracle_moment(k, n, workers=workers)
            if centred:
                got = got.substitute(1, 0)
            name = f"oracle vs closed form, k={k} n={n}" + (" (centered)" if centred else "")
            checks.append(_value_check(name, closed(n), got))
            if not centred:
                checks.extend(_structure_checks(f"f_{k}({n})", got, k, n))

    rad = DistributionSpec.rademacher()
    checks.append(
        _value_check(
            "exhaustive Rademacher det^2, n=2",
            Fraction(2),
            exhaustive_moment(rad, 2, 2),
        )
    )
    checks.append(
        _value_check(
            "exhaustive Rademacher det^4, n=3",
            fourth_moment_zero_mean(3).evaluate({2: 1, 4: 1}, 0),
            exhaustive_moment(rad, 4, 3),
        )
    )
    return VerificationReport("small", checks)


def suite_series(
    *, workers: int = 1, seed: int = MC_SEED, samples: int = MC_SAMPLES
) -> VerificationReport:
    checks: list[CheckResult] = []

    for k, closed, F in (
        (2, second_moment, second_moment_egf(12)),
        (4, fourth_moment, fourth_moment_egf(8)),
        (6, sixth_moment_zero_mean, sixth_moment_zero_mean_egf(8)),
    ):
        for n in range(F.order + 1):
            checks.append(
                _value_check(f"F_{k} extraction n={n}", closed(n), F.det_moment(n))
            )

    # Mark-class assembly at unit variance.
    order = 10
    m1mu3 = MomentPolynomial.monomial(1, {1: 1, 3: 1}, Basis.CENTRAL)
    pair = polynomial_in_t([1, m1mu3], order)
    assembled = (
        pair.pow(4) * mark_class_egf(MarkClass.ZERO, order)
        + pair.pow(2) * mark_class_egf(MarkClass.TWO, order)
        + mark_class_egf(MarkClass.FOUR, order)
    )
    F4_unit = fourth_moment_egf(order)
    F4_unit = TruncatedEGF(tuple(c.substitute(2, 1) for c in F4_unit.coeffs))
    checks.append(_series_check("mark-class assembly vs F_4 at mu_2=1", F4_unit, assembled))
    checks.append(
        _series_check(
            "mark4 split sum",
            mark_class_egf(MarkClass.FOUR, order),
            mark_class_egf(MarkClass.FOUR_ONE_COL, order)
            + mark_class_egf(MarkClass.FOUR_TWO_COLS, order),
        )
    )
    two_centered = TruncatedEGF(
        tuple(c.substitute(1, 0) for c in mark_class_egf(MarkClass.TWO, order).coeffs)
    )
    zero_series = polynomial_in_t([], order, basis=Basis.CENTRAL)
    checks.append(_series_check("mark2 class vanishes when centered", zero_series, two_centered))

    # Centered fourth-moment forms agree.
    for n in range(7):
        centered = central_to_raw(fourth_moment(n)).substitute(1, 0)
        checks.append(
            _value_check(
                f"centered f_4({n}) matches two-symbol form",
                fourth_moment_zero_mean(n),
                centered,
            )
        )

    # Gaussian reductions: central moments (1, 0, 3) for k=4, raw for k=6.
    gauss = gaussian_moment_table(6)
    rest = {r: v for r, v in gauss.items() if r >= 2}
    for n in range(11):
        checks.append(
            _value_check(
                f"Gaussian reduction k=4 n={n}",
                gaussian_det_moment(4, n),
                fourth_moment(n).evaluate({2: 1, 3: 0, 4: 3}, 0),
            )
        )
        checks.append(
            _value_check(
                f"Gaussian reduction k=6 n={n}",
                gaussian_det_moment(6, n),
                sixth_moment_zero_mean(n).evaluate(rest, 0),
            )
        )

    # Generating-function calculus on the series t.
    t = t_times(1, 12, basis=Basis.RAW)
    derange = (t.log_geometric() - t).exp()  # SET(CYC_{>=2}) = derangements
    d4 = 24 * derange.coefficient(4).constant_term()
    checks.append(_value_check("derangements of 4", Fraction(9), d4))
    checks.append(
        _series_check("SET of CYC is SEQ", t.geometric(), t.log_geometric().exp())
    )
    mm = MomentPolynomial.monomial(1, {4: 1}, Basis.RAW) - 3
    inner = t_times(1, 6, basis=Basis.RAW) * t_times(mm, 6).geometric().pow(3)
    composed = gaussian_sixth_egf(6).compose(inner)
    checks.append(
        _value_check(
            "N_6 composition linear coefficient",
            Fraction(15),
            composed.coefficient(1).constant_term(),
        )
    )
    return VerificationReport("series", checks)


def suite_montecarlo(
    *, workers: int = 1, seed: int = MC_SEED, samples: int = MC_SAMPLES
) -> VerificationReport:
    checks: list[CheckResult] = []
    rad = DistributionSpec.rademacher()
    normal = DistributionSpec.std_normal()
    cases = [
        ("Rademacher det^2, n=3", rad, 2, 3, Fraction(6)),
        ("Rademacher det^4, n=3", rad, 4, 3, Fraction(96)),
        ("Normal det^6, n=2", normal, 6, 2, Fraction(720)),
    ]
    reports = []
    for name, dist, k, n, target in cases:
        report = mc_estimate(dist, k, n, samples=samples, seed=seed, workers=workers)
        reports.append(report)
        checks.append(
            CheckResult(
                f"MC {name}",
                f"{float(target)} +/- {MC_SIGMAS * report.std_error:.6g}",
                f"{report.estimate:.6g}",
                report.exact_target == target and report.within(MC_SIGMAS),
            )
        )
    # The first case's draw, with ``workers``, against one serial draw.  A
    # +-1 draw at n = 3 goes through the determinant table, which never
    # pools, so both draws are serial: this guards seed determinism, not
    # independence from the worker count (tests/test_sampling.py and the
    # pooled-vs-serial `mc` diff in CI cover that).
    checks.append(
        _value_check(
            "MC reproducibility at fixed seed",
            mc_estimate(rad, 2, 3, samples=samples, seed=seed).estimate,
            reports[0].estimate,
        )
    )
    return VerificationReport("montecarlo", checks)


def suite_all(
    *, workers: int = 1, seed: int = MC_SEED, samples: int = MC_SAMPLES
) -> VerificationReport:
    checks: list[CheckResult] = []
    for suite in (suite_small, suite_series, suite_montecarlo):
        checks += suite(workers=workers, seed=seed, samples=samples).checks
    return VerificationReport("all", checks)


SUITES = ("small", "series", "montecarlo", "all")


def run_suite(
    name: str, workers: int = 1, seed: int = MC_SEED, samples: int = MC_SAMPLES
) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r} (choose from {sorted(SUITES)})")
    # Looked up when called, so a wrapped `suite_<name>` is the one that runs.
    return globals()[f"suite_{name}"](workers=workers, seed=seed, samples=samples)
