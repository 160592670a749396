"""Closed forms and generating functions for E[det(A)^k], k in {2, 4, 6}."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest

from detmom.errors import OrderCapacityError
from detmom.formulas import (
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
from detmom.poly import (
    WEIGHT_LIMIT,
    Basis,
    MomentPolynomial,
    central_mean,
    central_symbol,
    central_to_raw,
    raw_symbol,
)
from detmom.series import TruncatedEGF, polynomial_in_t, t_times

GAUSSIAN_CENTRAL = {2: Fraction(1), 3: Fraction(0), 4: Fraction(3),
                    5: Fraction(0), 6: Fraction(15)}


def centered(series: TruncatedEGF) -> TruncatedEGF:
    return TruncatedEGF(tuple(c.substitute(1, 0) for c in series.coeffs))


def at_unit_variance(series: TruncatedEGF) -> TruncatedEGF:
    return TruncatedEGF(tuple(c.substitute(2, 1) for c in series.coeffs))


# -- second moment ---------------------------------------------------------


def test_second_moment_base_cases():
    assert second_moment(0) == MomentPolynomial.constant(1, Basis.RAW)
    assert second_moment(1).to_text() == "m2"
    assert second_moment(2).to_text() == "2*m2^2 - 2*m1^4"


def test_second_moment_product_form():
    m1, m2 = raw_symbol(1), raw_symbol(2)
    for n in range(1, 9):
        expected = factorial(n) * (m2 + (n - 1) * m1 ** 2) * (m2 - m1 ** 2) ** (n - 1)
        assert second_moment(n) == expected


def test_second_moment_egf_extraction():
    F2 = second_moment_egf(10)
    for n in range(11):
        assert F2.det_moment(n) == second_moment(n)


def test_second_moment_at_gaussian_is_factorial():
    for n in range(9):
        assert second_moment(n).evaluate({2: 1}, 0) == factorial(n)


# -- fourth moment ---------------------------------------------------------


def test_fourth_moment_is_central_basis():
    assert fourth_moment(2).basis is Basis.CENTRAL


def test_fourth_moment_base_cases_in_raw_symbols():
    assert central_to_raw(fourth_moment(0)) == MomentPolynomial.constant(1, Basis.RAW)
    assert central_to_raw(fourth_moment(1)).to_text() == "m4"
    assert (
        central_to_raw(fourth_moment(2)).to_text()
        == "2*m4^2 - 8*m1^2*m3^2 + 6*m2^4"
    )


def test_fourth_moment_egf_extraction():
    F4 = fourth_moment_egf(7)
    for n in range(8):
        assert F4.det_moment(n) == fourth_moment(n)


def test_fourth_moment_zero_mean_matches_centered_general_form():
    for n in range(7):
        assert fourth_moment_zero_mean(n) == central_to_raw(
            fourth_moment(n)
        ).substitute(1, 0)


def test_fourth_moment_zero_mean_small_values():
    # n = 2 with zero mean: 2 m4^2 + 6 m2^4 - 8 m2^... worked by binomial
    # expansion over the 4x4 permutation tables: 2*m4^2 + 6*m2^4.
    m2, m4 = raw_symbol(2), raw_symbol(4)
    assert fourth_moment_zero_mean(1) == m4
    assert fourth_moment_zero_mean(2) == 2 * m4 ** 2 + 6 * m2 ** 4


# -- sixth moment, centered entries ----------------------------------------


def test_sixth_moment_base_cases():
    assert sixth_moment_zero_mean(0) == MomentPolynomial.constant(1, Basis.RAW)
    assert sixth_moment_zero_mean(1).to_text() == "m6"
    assert (
        sixth_moment_zero_mean(2).to_text()
        == "2*m6^2 + 30*m2^2*m4^2 - 20*m3^4"
    )


def test_sixth_moment_egf_extraction():
    F6 = sixth_moment_zero_mean_egf(12)
    for n in range(13):
        assert F6.det_moment(n) == sixth_moment_zero_mean(n)


def test_sixth_moment_seed_series_coefficients():
    # [t^n] of the seed factor is (n+1)(n+2)(n+4)!/48.
    N6 = gaussian_sixth_egf(5)
    got = [c.constant_term() for c in N6.coeffs]
    expected = [
        Fraction((n + 1) * (n + 2) * factorial(n + 4), 48) for n in range(6)
    ]
    assert got == expected
    assert got[:3] == [1, 15, 180]


def test_sixth_moment_seed_composition_linear_coefficient():
    # Substituting t -> m2^3 t / (1 - (m2 m4 - 3 m2^3) t)^3 into the seed
    # series and reading the linear coefficient at the Gaussian point gives
    # the count 15 of pairings of six symbols.
    mm = raw_symbol(4) * raw_symbol(2) - 3 * raw_symbol(2) ** 3
    inner = t_times(raw_symbol(2) ** 3, 4) * t_times(mm, 4).geometric().pow(3)
    composed = gaussian_sixth_egf(4).compose(inner)
    lin = composed.coefficient(1)
    assert lin.evaluate({2: 1, 3: 0, 4: 3, 5: 0, 6: 15}, 0) == 15


# -- factored builders against the flattened sums --------------------------
#
# The builders sum the factored forms by Horner's rule with integer
# coefficients.  These references are the flattened sums they replace, term
# by term with Fraction coefficients and the n!^2 cleared at the end.


def _fourth_moment_triple_sum(n: int) -> MomentPolynomial:
    m1, mu2, mu3, mu4 = (
        central_mean(), central_symbol(2), central_symbol(3), central_symbol(4)
    )
    excess = mu4 - 3 * mu2**2

    def d_factor(w: int, c: int) -> int:
        return (2 + c, c * (2 + c), c**3)[w]

    total = MomentPolynomial.zero(Basis.CENTRAL)
    for w in range(3):
        for s in range(4 - 2 * w + 1):
            for c in range(n - s + 1):
                d = d_factor(w, c)
                if d == 0:
                    continue
                coef = Fraction(
                    comb(4 - 2 * w, s) * (1 + c) * d,
                    factorial(n - c - s) * factorial(2 - w) * factorial(w),
                )
                total = total + (
                    coef * m1 ** (s + 2 * w) * mu2 ** (2 * c - w) * mu3**s
                    * excess ** (n - c - s)
                )
    return factorial(n) ** 2 * total


def _fourth_moment_zero_mean_sum(n: int) -> MomentPolynomial:
    m2, m4 = raw_symbol(2), raw_symbol(4)
    excess = m4 - 3 * m2**2
    total = MomentPolynomial.zero(Basis.RAW)
    for j in range(n + 1):
        total = total + (
            Fraction(comb(n - j + 2, 2), factorial(j)) * excess**j
            * m2 ** (2 * (n - j))
        )
    return factorial(n) ** 2 * total


def _sixth_moment_triple_sum(n: int) -> MomentPolynomial:
    m2, m3, m4, m6 = (raw_symbol(r) for r in (2, 3, 4, 6))
    q6 = m6 - 10 * m3**2 - 15 * m4 * m2 + 30 * m2**3
    q4 = m4 * m2 - 3 * m2**3
    total = MomentPolynomial.zero(Basis.RAW)
    for j in range(n + 1):
        for i in range(j + 1):
            for c in range(n - j + 1):
                coef = Fraction(
                    (1 + i) * (2 + i) * factorial(4 + i) * comb(10, c)
                    * comb(14 + j + 2 * i, j - i),
                    48 * factorial(n - j - c),
                )
                total = total + (
                    coef * q6 ** (n - j - c) * q4 ** (j - i) * m3 ** (2 * c)
                    * m2 ** (3 * i)
                )
    return factorial(n) ** 2 * total


def test_fourth_moment_matches_triple_sum():
    for n in range(17):
        assert fourth_moment(n) == _fourth_moment_triple_sum(n)
        assert fourth_moment_zero_mean(n) == _fourth_moment_zero_mean_sum(n)


def test_sixth_moment_matches_triple_sum():
    for n in range(13):
        assert sixth_moment_zero_mean(n) == _sixth_moment_triple_sum(n)


@pytest.mark.parametrize(
    "builder",
    [second_moment, fourth_moment, fourth_moment_zero_mean, sixth_moment_zero_mean],
)
def test_closed_forms_have_int_coefficients(builder):
    for n in (0, 1, 2, 5, 12):
        assert all(type(c) is int for c in builder(n)._terms.values())


@pytest.mark.parametrize(
    "k,builder",
    [
        (2, second_moment),
        (4, fourth_moment),
        (4, fourth_moment_zero_mean),
        (6, sixth_moment_zero_mean),
    ],
)
def test_builders_refuse_the_packing_limit_before_any_work(k, builder):
    # The first n whose weight k*n reaches the limit is refused with the
    # weight of the result, not with that of a product formed partway through.
    n = -(-WEIGHT_LIMIT // k)
    with pytest.raises(OrderCapacityError, match=f"weight {k * n} "):
        builder(n)


# -- mark classes at unit variance -----------------------------------------


def test_mark_class_assembly_recovers_fourth_moment():
    order = 8
    m1mu3 = MomentPolynomial.monomial(1, {1: 1, 3: 1}, Basis.CENTRAL)
    pair = polynomial_in_t([1, m1mu3], order)
    assembled = (
        pair.pow(4) * mark_class_egf(MarkClass.ZERO, order)
        + pair.pow(2) * mark_class_egf(MarkClass.TWO, order)
        + mark_class_egf(MarkClass.FOUR, order)
    )
    assert assembled == at_unit_variance(fourth_moment_egf(order))


def test_mark4_class_splits_by_column_pattern():
    order = 8
    assert mark_class_egf(MarkClass.FOUR, order) == (
        mark_class_egf(MarkClass.FOUR_ONE_COL, order)
        + mark_class_egf(MarkClass.FOUR_TWO_COLS, order)
    )


def test_marked_classes_vanish_when_centered():
    order = 6
    for which in (MarkClass.TWO, MarkClass.FOUR,
                  MarkClass.FOUR_ONE_COL, MarkClass.FOUR_TWO_COLS):
        s = centered(mark_class_egf(which, order))
        assert all(c.is_zero for c in s.coeffs)


def test_zero_mark_class_alone_gives_centered_fourth_moment():
    order = 6
    zero_class = mark_class_egf(MarkClass.ZERO, order)
    assert zero_class == at_unit_variance(centered(fourth_moment_egf(order)))


# -- Gaussian entries ------------------------------------------------------


def test_gaussian_product_values():
    assert gaussian_det_moment(2, 3) == 6
    assert gaussian_det_moment(4, 2) == 24
    assert gaussian_det_moment(6, 2) == 720
    assert gaussian_det_moment(6, 3) == 75600
    assert gaussian_det_moment(8, 2) == 40320
    assert gaussian_det_moment(2, 0) == 1


def test_gaussian_product_form():
    # prod_{j < k/2} (n + 2j)! / (2j)!
    for k in (2, 4, 6, 8):
        for n in range(6):
            expected = Fraction(1)
            for j in range(k // 2):
                expected *= Fraction(factorial(n + 2 * j), factorial(2 * j))
            assert gaussian_det_moment(k, n) == expected


def test_gaussian_rejects_odd_power():
    with pytest.raises(ValueError):
        gaussian_det_moment(3, 2)
    with pytest.raises(ValueError):
        gaussian_det_moment(0, 2)


def test_gaussian_moment_table_is_double_factorials():
    table = gaussian_moment_table(8)
    assert table == {1: 0, 2: 1, 3: 0, 4: 3, 5: 0, 6: 15, 7: 0, 8: 105}


def test_fourth_moment_reduces_to_gaussian_product():
    for n in range(11):
        assert fourth_moment(n).evaluate(
            {2: 1, 3: 0, 4: 3}, 0
        ) == gaussian_det_moment(4, n)


def test_sixth_moment_reduces_to_gaussian_product():
    rest = {r: v for r, v in GAUSSIAN_CENTRAL.items()}
    for n in range(11):
        assert sixth_moment_zero_mean(n).evaluate(rest, 0) == gaussian_det_moment(6, n)


# -- structural properties -------------------------------------------------


@pytest.mark.parametrize(
    "k,poly_of_n",
    [
        (2, second_moment),
        (4, lambda n: central_to_raw(fourth_moment(n))),
        (6, sixth_moment_zero_mean),
    ],
)
def test_moments_are_homogeneous_of_degree_k_times_n(k, poly_of_n):
    for n in range(1, 5):
        assert poly_of_n(n).grading_weights() == {k * n}


@pytest.mark.parametrize(
    "k,poly_of_n",
    [
        (2, second_moment),
        (4, lambda n: central_to_raw(fourth_moment(n))),
        (6, sixth_moment_zero_mean),
    ],
)
def test_even_moments_are_sign_symmetric(k, poly_of_n):
    for n in range(1, 5):
        p = poly_of_n(n)
        assert p.negate_entries() == p


def test_scaling_entries_scales_by_c_to_the_kn():
    c = Fraction(3, 2)
    for n in range(1, 5):
        p = second_moment(n)
        assert p.scale_entries(c) == c ** (2 * n) * p
    q = central_to_raw(fourth_moment(3))
    assert q.scale_entries(c) == c ** 12 * q
