"""Acceptance gate: one check per release criterion, one PASS/FAIL line each.

Every criterion uses exact rational arithmetic except the Monte-Carlo one,
which allows five standard errors around the exact target.  Run directly
(``python tests/test_acceptance.py``) for the line-per-criterion report, or
through pytest, where each criterion is a test.
"""

from __future__ import annotations

import itertools
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from detmom.formulas import (
    MarkClass,
    fourth_moment,
    fourth_moment_egf,
    gaussian_det_moment,
    mark_class_egf,
    second_moment,
    second_moment_egf,
    sixth_moment_zero_mean,
    sixth_moment_zero_mean_egf,
)
from detmom.poly import Basis, MomentPolynomial, central_to_raw
from detmom.sampling import DistributionSpec, exhaustive_moment, mc_estimate
from detmom.series import TruncatedEGF, polynomial_in_t, t_times
from detmom.tables import MarkedRow, MarkedTable, PermutationTable, TableMode, oracle_moment
from detmom.verify import MC_SAMPLES, MC_SEED


@contextmanager
def reported(line: str):
    try:
        yield
    except BaseException:
        print(f"{line}: FAIL")
        raise
    print(f"{line}: PASS")


def central(coef, powers):
    return MomentPolynomial.monomial(coef, powers, Basis.CENTRAL)


def raw(coef, powers):
    return MomentPolynomial.monomial(coef, powers, Basis.RAW)


# Worked 4x9 examples, frozen by hand from the column runs.
PLAIN_4x9 = PermutationTable(
    (
        (0, 5, 2, 8, 4, 1, 6, 7, 3),
        (2, 1, 0, 8, 3, 5, 6, 4, 7),
        (3, 5, 0, 8, 2, 1, 6, 4, 7),
        (1, 2, 0, 4, 3, 5, 6, 7, 8),
    )
)

MARKED_4x9 = MarkedTable(
    (
        MarkedRow((0, 5, 2, 3, 4, 1, 6, 7, 8), mark=1),
        MarkedRow((2, 1, 0, 8, 3, 5, 6, 4, 7)),
        MarkedRow((0, 5, 2, 8, 3, 1, 6, 4, 7), mark=1),
        MarkedRow((2, 1, 0, 3, 4, 5, 6, 7, 8)),
    )
)

# The marked enumeration for k=4, n=2 collapses to nine monomial classes
# with these multiplicities (times 2! for the row-relabelling).
NINE_CLASSES = [
    (1, {4: 2}),
    (3, {2: 4}),
    (8, {1: 1, 3: 1, 4: 1}),
    (12, {1: 2, 2: 1, 4: 1}),
    (12, {1: 2, 2: 3}),
    (12, {1: 2, 3: 2}),
    (24, {1: 3, 2: 1, 3: 1}),
    (2, {1: 4, 4: 1}),
    (18, {1: 4, 2: 2}),
]


def criterion_1():
    """Oracle reproduces the worked table examples, in under a second."""
    start = time.perf_counter()

    assert PLAIN_4x9.sign() == -1
    assert PLAIN_4x9.weight() == raw(1, {1: 12, 2: 7, 3: 2, 4: 1})
    assert MARKED_4x9.sign() == 1
    assert MARKED_4x9.weight() == central(1, {1: 2, 2: 15, 4: 1})

    frozen = MomentPolynomial.zero(Basis.CENTRAL)
    for coef, powers in NINE_CLASSES:
        frozen = frozen + central(2 * coef, powers)
    assert oracle_moment(4, 2, mode=TableMode.MARKED) == frozen

    # Pinned-first-row second-moment tables at n = 3: the six second rows
    # contribute m2^3 - 3 m2 m1^4 + 2 m1^6.
    total = MomentPolynomial.zero(Basis.RAW)
    for second in itertools.permutations(range(3)):
        t = PermutationTable(((0, 1, 2), second))
        total = total + t.sign() * t.weight()
    assert total == raw(1, {2: 3}) - raw(3, {1: 4, 2: 1}) + raw(2, {1: 6})
    assert 6 * total == oracle_moment(2, 3)

    assert time.perf_counter() - start < 1.0


def criterion_2():
    """Oracle equals the closed forms: k=2 to n=6, k=4 to n=4, k=6 centered to n=3."""
    for n in range(7):
        assert oracle_moment(2, n) == second_moment(n)
    for n in range(5):
        assert oracle_moment(4, n) == central_to_raw(fourth_moment(n))
    for n in range(4):
        assert oracle_moment(6, n).substitute(1, 0) == sixth_moment_zero_mean(n)


def criterion_3():
    """Series coefficients equal the finite sums; mark classes reassemble."""
    F2, F4, F6 = second_moment_egf(8), fourth_moment_egf(8), sixth_moment_zero_mean_egf(8)
    for n in range(9):
        assert F2.det_moment(n) == second_moment(n)
        assert F4.det_moment(n) == fourth_moment(n)
        assert F6.det_moment(n) == sixth_moment_zero_mean(n)

    order = 10
    m1mu3 = central(1, {1: 1, 3: 1})
    pair = polynomial_in_t([1, m1mu3], order)
    assembled = (
        pair.pow(4) * mark_class_egf(MarkClass.ZERO, order)
        + pair.pow(2) * mark_class_egf(MarkClass.TWO, order)
        + mark_class_egf(MarkClass.FOUR, order)
    )
    F4_unit = fourth_moment_egf(order)
    F4_unit = TruncatedEGF(tuple(c.substitute(2, 1) for c in F4_unit.coeffs))
    assert assembled == F4_unit


def criterion_4():
    """Specializing to standard normal entries gives the product formula."""
    assert gaussian_det_moment(4, 2) == 24
    assert gaussian_det_moment(6, 3) == 75600
    for n in range(11):
        assert second_moment(n).evaluate({2: 1}, 0) == factorial(n)
        assert fourth_moment(n).evaluate({2: 1, 3: 0, 4: 3}, 0) == gaussian_det_moment(4, n)
        assert sixth_moment_zero_mean(n).evaluate(
            {2: 1, 3: 0, 4: 3, 5: 0, 6: 15}, 0
        ) == gaussian_det_moment(6, n)


def criterion_5():
    """Each moment is homogeneous of degree k*n and invariant under A -> -A."""
    forms = {
        2: second_moment,
        4: lambda n: central_to_raw(fourth_moment(n)),
        6: sixth_moment_zero_mean,
    }
    for k, form in forms.items():
        for n in range(1, 5):
            p = form(n)
            assert p.grading_weights() == {k * n}
            assert p.negate_entries() == p


def criterion_6():
    """Exhaustive sign-matrix averages, in under a second."""
    start = time.perf_counter()
    rad = DistributionSpec.rademacher()
    assert exhaustive_moment(rad, 2, 2) == 2
    assert exhaustive_moment(rad, 4, 3) == 96
    assert time.perf_counter() - start < 1.0


def criterion_7():
    """Monte-Carlo estimates land within five standard errors of the targets."""
    cases = [
        (DistributionSpec.rademacher(), 2, 3, Fraction(6)),
        (DistributionSpec.rademacher(), 4, 3, Fraction(96)),
        (DistributionSpec.std_normal(), 6, 2, Fraction(720)),
    ]
    for dist, k, n, target in cases:
        report = mc_estimate(dist, k, n, samples=MC_SAMPLES, seed=MC_SEED)
        assert report.exact_target == target
        assert abs(report.estimate - float(target)) <= 5.0 * report.std_error, (
            f"k={k} n={n}: {report.estimate} vs {target} "
            f"(std error {report.std_error})"
        )


def criterion_8():
    """Series calculus: derangements, set-of-cycles, composition associativity."""
    t = t_times(1, 12, basis=Basis.RAW)
    derange = (t.log_geometric() - t).exp()
    assert 24 * derange.coefficient(4).constant_term() == 9
    assert t.log_geometric().exp() == t.geometric()

    order = 10
    mk = lambda coeffs: polynomial_in_t(
        [Fraction(c) for c in coeffs], order, basis=Basis.RAW
    )
    a = mk([1, 1, 2, -1])
    b = mk([0, 1, 0, 1, Fraction(1, 2)])
    c = mk([0, 1, -1, 0, 2])
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


CRITERIA = [
    ("criterion 1, oracle reproduces the worked examples in <1s", criterion_1),
    ("criterion 2, oracle equals the closed forms", criterion_2),
    ("criterion 3, series match sums and mark classes assemble", criterion_3),
    ("criterion 4, Gaussian reductions up to n=10", criterion_4),
    ("criterion 5, homogeneity and sign symmetry", criterion_5),
    ("criterion 6, exhaustive sign-matrix averages in <1s", criterion_6),
    ("criterion 7, Monte-Carlo within 5 standard errors", criterion_7),
    ("criterion 8, generating-function calculus", criterion_8),
]


def test_criterion_1_worked_examples():
    with reported(CRITERIA[0][0]):
        criterion_1()


def test_criterion_2_oracle_vs_closed_forms():
    with reported(CRITERIA[1][0]):
        criterion_2()


def test_criterion_3_series_vs_sums():
    with reported(CRITERIA[2][0]):
        criterion_3()


def test_criterion_4_gaussian_reductions():
    with reported(CRITERIA[3][0]):
        criterion_4()


def test_criterion_5_homogeneity_and_sign():
    with reported(CRITERIA[4][0]):
        criterion_5()


def test_criterion_6_exhaustive_averages():
    with reported(CRITERIA[5][0]):
        criterion_6()


def test_criterion_7_monte_carlo():
    with reported(CRITERIA[6][0]):
        criterion_7()


def test_criterion_8_series_calculus():
    with reported(CRITERIA[7][0]):
        criterion_8()


if __name__ == "__main__":
    failures = 0
    for line, fn in CRITERIA:
        try:
            with reported(line):
                fn()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
