"""Truncated EGF arithmetic: products, exp, geometric, log, composition."""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmom.poly import Basis, MomentPolynomial, raw_symbol
from detmom.series import TruncatedEGF, polynomial_in_t, t_times


def rational_series(coeffs, order=None):
    """A series with constant (symbol-free) coefficients, padded to order."""
    order = len(coeffs) - 1 if order is None else order
    polys = [Fraction(c) for c in coeffs]
    return polynomial_in_t(polys, order, basis=Basis.RAW)


def exp_t(order):
    return rational_series([Fraction(1, factorial(n)) for n in range(order + 1)])


def geom_t(order):
    return rational_series([1] * (order + 1))


def ident_t(order):
    return rational_series([0, 1] + [0] * (order - 1))


def numbers(s):
    return [p.constant_term() for p in s.coeffs]


# -- construction ----------------------------------------------------------


def test_polynomial_in_t_pads_with_zeros():
    s = rational_series([1, 2], order=4)
    assert numbers(s) == [1, 2, 0, 0, 0]
    assert s.order == 4


def test_coefficient_beyond_truncation_raises():
    s = rational_series([1, 2])
    with pytest.raises(ValueError):
        s.coefficient(5)
    one = MomentPolynomial.constant(1, Basis.RAW)
    for order in (0, 3):
        s = geom_t(order)
        for read in (s.coefficient, s.det_moment):
            for n in (-1, order + 1):
                with pytest.raises(ValueError, match=f"^coefficient {n} outside "
                                                     f"truncation order {order}$"):
                    read(n)
        # Both ends of the range are read: every a_n of 1/(1 - t) is 1.
        assert s.coefficient(0) == s.coefficient(order) == one
        assert s.det_moment(order) == factorial(order) ** 2 * one


def test_truncate_drops_high_coefficients():
    s = geom_t(6).truncate(3)
    assert numbers(s) == [1, 1, 1, 1]


def test_construction_refusals():
    with pytest.raises(ValueError, match="^a series needs at least the t\\^0 coefficient$"):
        TruncatedEGF(())
    raw, central = (MomentPolynomial.constant(1, basis) for basis in Basis)
    with pytest.raises(ValueError, match="^series coefficients must share a basis$"):
        TruncatedEGF((raw, central))
    with pytest.raises(ValueError, match="^cannot extend a truncated series$"):
        geom_t(3).truncate(4)
    with pytest.raises(ValueError, match="^series powers need a nonnegative exponent$"):
        geom_t(3).pow(-1)
    with pytest.raises(
        ValueError, match="^give at least one MomentPolynomial coefficient or a basis$"
    ):
        polynomial_in_t([1, 2], 3)


def test_constant_series_and_t_times():
    one = polynomial_in_t([1], 3, Basis.RAW)
    assert numbers(one) == [1, 0, 0, 0]
    t = t_times(raw_symbol(2), 3)
    assert t.coefficient(0).is_zero
    assert t.coefficient(1) == raw_symbol(2)
    assert t.coefficient(2).is_zero and t.coefficient(3).is_zero


# -- ring operations -------------------------------------------------------


def test_product_of_exponentials_doubles_the_rate():
    # e^t * e^t = e^{2t}: coefficient of t^n is 2^n / n!
    s = exp_t(8) * exp_t(8)
    assert numbers(s) == [Fraction(2 ** n, factorial(n)) for n in range(9)]


def test_product_truncates_to_shorter_operand():
    s = exp_t(8) * exp_t(3)
    assert s.order == 3


def test_scalar_and_polynomial_multiplication():
    s = 2 * geom_t(3)
    assert numbers(s) == [2, 2, 2, 2]
    m2 = raw_symbol(2)
    t = geom_t(3) * m2
    assert all(p == m2 for p in t.coeffs)


def test_pow_matches_repeated_product():
    g = geom_t(6)
    assert g.pow(3) == g * g * g
    # 1/(1-t)^3 has coefficients C(n+2, 2)
    assert numbers(g.pow(3)) == [
        Fraction((n + 1) * (n + 2), 2) for n in range(7)
    ]


def test_pow_zero_is_one():
    assert numbers(geom_t(4).pow(0)) == [1, 0, 0, 0, 0]
    assert geom_t(0).pow(0) == polynomial_in_t([1], 0, Basis.RAW)


# -- exp, geometric, log ---------------------------------------------------


def test_exp_of_t_is_the_exponential():
    assert exp_t(8) == ident_t(8).exp()


def test_geometric_of_t_is_the_geometric_series():
    assert geom_t(8) == ident_t(8).geometric()


def test_geometric_times_complement_is_one():
    one_minus_t = rational_series([1, -1], order=8)
    assert numbers(one_minus_t * geom_t(8)) == [1] + [0] * 8


def test_log_geometric_inverts_geometric():
    # log(1/(1-t)) = sum t^n / n
    s = ident_t(8).log_geometric()
    assert numbers(s) == [0] + [Fraction(1, n) for n in range(1, 9)]
    assert s.exp() == geom_t(8)


def test_exp_requires_zero_constant_term():
    with pytest.raises(ValueError):
        geom_t(4).exp()
    with pytest.raises(ValueError):
        geom_t(4).log_geometric()


def test_structures_labelled_by_cycles_assemble_to_permutations():
    # Partitioning into any number of cycles and ordering nothing:
    # exp(log-geometric) rebuilds the permutation EGF 1/(1-t), i.e. the
    # set-of-cycles construction equals the sequence construction.
    order = 12
    cycles = ident_t(order).log_geometric()
    assert cycles.exp() == geom_t(order)


def test_derangement_numbers_from_exp_over_geometric():
    # e^{-t}/(1-t) counts permutations with no fixed point.
    order = 8
    minus_t = rational_series([0, -1], order=order)
    series = minus_t.exp() * geom_t(order)
    got = [factorial(n) * series.coefficient(n).constant_term() for n in range(order + 1)]

    # Independent check: d_n = (n-1) * (d_{n-1} + d_{n-2}).
    d = [Fraction(1), Fraction(0)]
    for n in range(2, order + 1):
        d.append((n - 1) * (d[n - 1] + d[n - 2]))
    assert got == d
    assert got[4] == 9


# -- composition -----------------------------------------------------------


def test_compose_with_identity_is_identity():
    s = exp_t(8)
    assert s.compose(ident_t(8)) == s


def test_compose_worked_example():
    # e^{2t} is e^t with t -> 2t.
    doubled = rational_series([0, 2], order=6)
    assert exp_t(6).compose(doubled) == exp_t(6) * exp_t(6)


def test_compose_of_one_is_one():
    # Series equality compares coefficients, and so their basis too.
    for order in (0, 3):
        one = polynomial_in_t([1], order, Basis.CENTRAL)
        assert one.compose(polynomial_in_t([0, 2], order, Basis.CENTRAL)) == one


def test_compose_requires_zero_constant_inner():
    with pytest.raises(ValueError):
        exp_t(4).compose(geom_t(4))


coeff_lists = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_compose_is_associative(a, b, c):
    order = 10
    outer = rational_series(a, order=order)
    mid = rational_series([0] + b, order=order)
    inner = rational_series([0] + c, order=order)
    assert outer.compose(mid).compose(inner) == outer.compose(mid.compose(inner))


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists)
def test_exp_turns_sums_into_products(a, b):
    order = 8
    u = rational_series([0] + a, order=order)
    v = rational_series([0] + b, order=order)
    assert (u + v).exp() == u.exp() * v.exp()


@settings(max_examples=60, deadline=None)
@given(coeff_lists)
def test_exp_then_log_geometric_round_trip(a):
    order = 8
    u = rational_series([0] + a, order=order)
    # log_geometric(s) = log(geometric(s)); applying it to exp(u) - shifted
    # is awkward, so verify exp o log_geometric = geometric instead.
    assert u.log_geometric().exp() == u.geometric()


# -- determinant-moment extraction -----------------------------------------


def test_det_moment_divides_out_the_double_factorial_normalization():
    coeffs = [Fraction(1), Fraction(1, 2), Fraction(5, 12)]
    s = rational_series(coeffs)
    assert s.det_moment(2) == MomentPolynomial.constant(
        factorial(2) ** 2 * Fraction(5, 12), Basis.RAW
    )


def test_det_moment_reads_any_series():
    assert exp_t(4).det_moment(0) == MomentPolynomial.constant(1, Basis.RAW)


def test_json_round_trip_of_series():
    s = rational_series([1, 2, 3])
    data = s.to_json_dict()
    assert data["convention"] == "f-convention"
    assert data["order"] == 2
    rebuilt = [MomentPolynomial.from_json_dict(c) for _, c in data["coeffs"]]
    assert rebuilt == list(s.coeffs)


# -- scaled storage against the plain-coefficient loops ---------------------
#
# `TruncatedEGF` stores n! * a_n and runs binomial convolutions on Python
# ints.  These are the loops it replaced, on the plain coefficients a_n with
# `Fraction` scalars, kept as the reference.


def ref_mul(a, b):
    n = min(len(a), len(b)) - 1
    out = []
    for d in range(n + 1):
        acc = MomentPolynomial.zero(a[0].basis)
        for i in range(d + 1):
            if a[i] and b[d - i]:
                acc = acc + a[i] * b[d - i]
        out.append(acc)
    return tuple(out)


def ref_exp(a):
    out = [MomentPolynomial.constant(1, a[0].basis)]
    for d in range(1, len(a)):
        acc = MomentPolynomial.zero(a[0].basis)
        for j in range(1, d + 1):
            if a[j]:
                acc = acc + j * a[j] * out[d - j]
        out.append(Fraction(1, d) * acc)
    return tuple(out)


def ref_geometric(a):
    out = [MomentPolynomial.constant(1, a[0].basis)]
    for d in range(1, len(a)):
        acc = MomentPolynomial.zero(a[0].basis)
        for j in range(1, d + 1):
            if a[j]:
                acc = acc + a[j] * out[d - j]
        out.append(acc)
    return tuple(out)


def ref_log_geometric(a):
    geo = ref_geometric(a)
    out = [MomentPolynomial.zero(a[0].basis)]
    for d in range(1, len(a)):
        acc = MomentPolynomial.zero(a[0].basis)
        for j in range(1, d + 1):
            if a[j]:
                acc = acc + j * a[j] * geo[d - j]
        out.append(Fraction(1, d) * acc)
    return tuple(out)


def ref_compose(outer, inner):
    # Horner's rule: (..(S_n * inner + S_{n-1}) * inner + ..) + S_0.
    n = min(len(outer), len(inner)) - 1
    inner = inner[: n + 1]
    zero = MomentPolynomial.zero(outer[0].basis)
    result = (outer[n],) + (zero,) * n
    for d in range(n - 1, -1, -1):
        result = ref_mul(result, inner)
        result = (result[0] + outer[d],) + result[1:]
    return result


scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


@st.composite
def polys(draw, max_terms=3):
    """A raw-basis polynomial in m1, m2, m3 with int or Fraction coefficients."""
    total = MomentPolynomial.zero(Basis.RAW)
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        powers = draw(st.dictionaries(
            st.sampled_from([1, 2, 3]), st.integers(min_value=1, max_value=2), max_size=2
        ))
        total = total + MomentPolynomial.monomial(draw(scalars), powers, Basis.RAW)
    return total


@st.composite
def series(draw, order=None, zero_constant=False, max_terms=3):
    order = draw(st.integers(min_value=0, max_value=10)) if order is None else order
    coeffs = [draw(polys(max_terms)) for _ in range(order + 1)]
    if zero_constant:
        coeffs[0] = MomentPolynomial.zero(Basis.RAW)
    return TruncatedEGF(tuple(coeffs))


@settings(max_examples=50, deadline=None)
@given(series(), series())
def test_scaled_product_matches_the_reference(a, b):
    assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs)


@settings(max_examples=60, deadline=None)
@given(series(zero_constant=True))
def test_scaled_species_constructions_match_the_reference(s):
    assert s.exp().coeffs == ref_exp(s.coeffs)
    assert s.geometric().coeffs == ref_geometric(s.coeffs)
    assert s.log_geometric().coeffs == ref_log_geometric(s.coeffs)


@settings(max_examples=40, deadline=None)
@given(series(max_terms=2), series(zero_constant=True, max_terms=2))
def test_scaled_compose_matches_horner(outer, inner):
    assert outer.compose(inner).coeffs == ref_compose(outer.coeffs, inner.coeffs)


@settings(max_examples=40, deadline=None)
@given(series(), scalars, st.integers(min_value=0, max_value=10))
def test_scaled_scalar_and_truncate(s, c, order):
    assert (s * c).coeffs == tuple(p * c for p in s.coeffs)
    assert (c * s) == s * c
    if order <= s.order:
        assert s.truncate(order).coeffs == s.coeffs[: order + 1]


@settings(max_examples=40, deadline=None)
@given(series())
def test_plain_coefficients_round_trip(s):
    coeffs = s.coeffs
    again = TruncatedEGF(coeffs)
    assert again.coeffs == coeffs
    assert again == s and hash(again) == hash(s)
    assert [s.coefficient(n) for n in range(s.order + 1)] == list(coeffs)
    assert (s.order, s.basis) == (len(coeffs) - 1, Basis.RAW)
    for n in range(s.order + 1):
        assert s.det_moment(n) == factorial(n) ** 2 * s.coefficient(n)


def test_series_differing_in_one_coefficient_are_unequal():
    a = rational_series([1, Fraction(1, 2), 3])
    b = rational_series([1, Fraction(1, 3), 3])
    assert a != b
    assert a != a.truncate(1)
    assert a == rational_series([1, Fraction(1, 2), 3])
