"""Exact polynomial arithmetic over moment symbols, plus basis conversion."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmom.errors import BasisMismatchError, MissingMomentError
from detmom.poly import (
    Basis,
    MomentPolynomial,
    central_mean,
    central_symbol,
    central_to_raw,
    raw_symbol,
    raw_to_central,
)


def m(r: int) -> MomentPolynomial:
    return raw_symbol(r)


def mu(r: int) -> MomentPolynomial:
    return central_symbol(r)


def mono(coef, powers, basis=Basis.RAW) -> MomentPolynomial:
    return MomentPolynomial.monomial(coef, powers, basis)


# -- construction and normalization ----------------------------------------


def test_zero_coefficients_are_dropped():
    p = m(2) - m(2)
    assert p.is_zero
    assert not p
    assert list(p.terms()) == []


def test_zero_equals_zero_at_different_capacity():
    # A zero coefficient vanishes whatever the width of its exponent vector.
    zero = MomentPolynomial.zero(Basis.RAW)
    assert MomentPolynomial(Basis.RAW, {(0,) * 3: 0}) == zero
    assert MomentPolynomial(Basis.RAW, {(0,) * 11: 0}) == zero
    assert hash(MomentPolynomial(Basis.RAW, {(0,) * 11: 0})) == hash(zero)


def test_equality_ignores_trailing_capacity():
    # Trailing empty slots of an exponent vector add nothing to the key.
    a = MomentPolynomial(Basis.RAW, {(0, 0, 1): 3})
    b = MomentPolynomial(Basis.RAW, {(0, 0, 1) + (0,) * 8: 3})
    assert a == b == 3 * m(2)
    assert hash(a) == hash(b)


def test_dense_vectors_widen_past_order_eight():
    p = MomentPolynomial.monomial(1, {9: 1}, Basis.RAW)
    ((exp, coef),) = p.terms()
    assert exp == (0,) * 9 + (1,)
    assert p.to_json_dict()["max_order"] == 9
    assert m(2).to_json_dict()["max_order"] == 8
    assert MomentPolynomial.zero(Basis.RAW).to_json_dict(10)["max_order"] == 10


def test_monomial_order_below_one_is_rejected():
    with pytest.raises(ValueError):
        MomentPolynomial.monomial(1, {0: 1}, Basis.RAW)


def test_symbols_below_their_first_order_are_refused():
    with pytest.raises(ValueError, match="raw symbols start at order 1"):
        raw_symbol(0)
    with pytest.raises(ValueError, match=r"start at order 2 \(mu_1 is zero\)"):
        central_symbol(1)


def test_mean_lives_in_slot_zero():
    p = mono(1, {1: 3})
    ((exp, coef),) = p.terms()
    assert exp[0] == 3
    assert exp[1] == 0
    assert coef == 1


def test_constant_polynomial_has_weight_zero():
    c = MomentPolynomial.constant(Fraction(7, 3), Basis.RAW)
    assert c.grading_weights() == {0}
    assert c.constant_term() == Fraction(7, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: MomentPolynomial.constant(0.1, Basis.RAW),
        lambda: MomentPolynomial(Basis.RAW, {(0, 0, 1, 0, 0, 0, 0, 0, 0): 0.5}),
        lambda: MomentPolynomial.monomial(0.5, {2: 1}, Basis.RAW),
        lambda: m(2).scale_entries(0.5),
        lambda: m(2).substitute(2, 0.5),
        lambda: m(2).evaluate({2: 0.5}, 0),
        lambda: (m(1) * m(2)).evaluate({2: 1}, 0.5),
    ],
)
def test_floats_are_refused_not_rounded(build):
    with pytest.raises(TypeError):
        build()


# -- ring operations -------------------------------------------------------


def test_small_product_worked_by_hand():
    # (m1 + m2) * (m1 - m2) = m1^2 - m2^2
    p = (m(1) + m(2)) * (m(1) - m(2))
    assert p == mono(1, {1: 2}) - mono(1, {2: 2})


def test_square_of_binomial():
    p = (m(2) + 3) ** 2
    assert p == mono(1, {2: 2}) + 6 * m(2) + 9


def test_pow_matches_repeated_multiplication():
    base = m(1) + 2 * m(3)
    by_mul = base
    for _ in range(4):
        by_mul = by_mul * base
    assert base ** 5 == by_mul


def test_pow_zero_is_one():
    assert (m(2) + m(4)) ** 0 == MomentPolynomial.constant(1, Basis.RAW)


def test_scalar_coercion_both_sides():
    p = m(2)
    assert 2 * p == p + p
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
    assert 1 - p == -(p - 1)


def test_mixing_bases_is_an_error():
    with pytest.raises(BasisMismatchError):
        m(2) + mu(2)
    with pytest.raises(BasisMismatchError):
        m(2) * mu(2)


# -- grading ---------------------------------------------------------------


def test_grading_counts_entries_per_monomial():
    # m1^2 * m3 touches five matrix entries: two means and one order-3 symbol
    # counted three times.
    p = mono(1, {1: 2, 3: 1})
    assert p.grading_weights() == {5}


def test_grading_of_inhomogeneous_sum():
    p = mono(1, {2: 2}) + mono(1, {1: 1})
    assert p.grading_weights() == {4, 1}


def test_negate_entries_flips_odd_weight_terms():
    p = mono(5, {2: 2}) + mono(3, {1: 1, 2: 1})
    q = p.negate_entries()
    assert q == mono(5, {2: 2}) - mono(3, {1: 1, 2: 1})
    assert q.negate_entries() == p


def test_scale_entries_is_graded_scaling():
    p = mono(2, {2: 1, 3: 1}) + mono(7, {1: 5})
    q = p.scale_entries(Fraction(1, 2))
    assert q == mono(2, {2: 1, 3: 1}) * Fraction(1, 32) + mono(7, {1: 5}) * Fraction(
        1, 32
    )


# -- substitution and evaluation -------------------------------------------


def test_power_and_substitution_refusals():
    with pytest.raises(
        ValueError, match="^polynomial powers need a nonnegative integer exponent$"
    ):
        m(2) ** -1
    with pytest.raises(ValueError, match="^no symbol of order 0$"):
        m(2).substitute(0, 1)


def test_substitute_kills_a_symbol():
    p = mono(1, {2: 2}) + mono(4, {1: 1, 3: 1})
    assert p.substitute(1, 0) == mono(1, {2: 2})
    assert p.substitute(3, Fraction(1, 2)) == mono(1, {2: 2}) + 2 * m(1)


def test_evaluate_worked_by_hand():
    p = 2 * mono(1, {2: 2}) - 2 * mono(1, {1: 4})
    # m1 = 1/2, m2 = 1: 2*1 - 2*(1/16) = 15/8
    assert p.evaluate({2: 1}, Fraction(1, 2)) == Fraction(15, 8)


def test_evaluate_missing_moment_raises():
    p = mono(1, {4: 1})
    with pytest.raises(MissingMomentError):
        p.evaluate({2: 1}, 0)


def test_evaluate_central_mean_slot_uses_mean_argument():
    p = central_mean() ** 2 * mu(2)
    assert p.evaluate({2: 3}, 2) == 12


# -- basis conversion ------------------------------------------------------


def test_central_moments_in_raw_symbols():
    assert central_to_raw(mu(2)) == m(2) - mono(1, {1: 2})
    assert central_to_raw(mu(3)) == m(3) - 3 * m(2) * m(1) + 2 * mono(1, {1: 3})
    assert central_to_raw(mu(4)) == (
        m(4) - 4 * m(3) * m(1) + 6 * m(2) * mono(1, {1: 2}) - 3 * mono(1, {1: 4})
    )


def test_raw_moments_in_central_symbols():
    m1 = central_mean()
    assert raw_to_central(m(2)) == mu(2) + m1 ** 2
    assert raw_to_central(m(3)) == mu(3) + 3 * mu(2) * m1 + m1 ** 3
    assert raw_to_central(m(4)) == (
        mu(4) + 4 * mu(3) * m1 + 6 * mu(2) * m1 ** 2 + m1 ** 4
    )


def test_conversion_refuses_matching_basis():
    with pytest.raises(BasisMismatchError):
        central_to_raw(m(2) ** 2)
    with pytest.raises(BasisMismatchError):
        raw_to_central(mu(2) ** 2)


def test_conversion_round_trip_worked_example():
    p = 2 * mono(1, {4: 1, 2: 1}) - mono(1, {1: 2, 3: 2})
    assert central_to_raw(raw_to_central(p)) == p


# -- text and JSON ---------------------------------------------------------


def test_text_ordering_and_signs():
    p = 2 * mono(1, {4: 2}) - 8 * mono(1, {1: 2, 3: 2}) + 6 * mono(1, {2: 4})
    assert p.to_text() == "2*m4^2 - 8*m1^2*m3^2 + 6*m2^4"


def test_text_of_central_polynomial():
    p = mu(2) ** 2 + 2 * central_mean() ** 2 * mu(2)
    assert p.to_text() == "mu2^2 + 2*m1^2*mu2"


def test_text_of_zero_and_constants():
    assert MomentPolynomial.zero(Basis.RAW).to_text() == "0"
    assert MomentPolynomial.constant(-3, Basis.RAW).to_text() == "-3"
    assert (m(2) - 1).to_text() == "m2 - 1"
    assert (mono(Fraction(1, 2), {2: 1})).to_text() == "1/2*m2"


def test_json_round_trip_of_worked_example():
    p = 2 * mono(1, {4: 2}) - 8 * mono(1, {1: 2, 3: 2}) + 6 * mono(1, {2: 4})
    data = p.to_json_dict()
    assert data["basis"] == "raw"
    assert MomentPolynomial.from_json_dict(data) == p


# -- property tests --------------------------------------------------------

coefs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
).filter(lambda f: f != 0)


def _powers(top_order: int, top_exp: int):
    return st.dictionaries(
        st.integers(min_value=1, max_value=top_order),
        st.integers(min_value=1, max_value=top_exp),
        max_size=3,
    )


@st.composite
def polys(draw, basis=Basis.RAW, top_order=6, top_exp=3, terms=4):
    picked = draw(st.lists(st.tuples(coefs, _powers(top_order, top_exp)), max_size=terms))
    p = MomentPolynomial.zero(basis)
    for coef, pw in picked:
        p = p + MomentPolynomial.monomial(coef, pw, basis)
    return p


# Basis conversion blows up the term count quickly, so the round-trip
# properties draw from a smaller pool and drop the per-example deadline.
small = dict(top_order=4, top_exp=2, terms=3)
convert_settings = settings(max_examples=40, deadline=None)


@given(polys(), polys(), polys())
def test_multiplication_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(polys(), polys())
def test_addition_is_commutative_with_exact_cancellation(a, b):
    assert a + b == b + a
    assert (a + b) - b == a


@given(polys(), polys())
def test_multiplication_is_commutative(a, b):
    assert a * b == b * a


@convert_settings
@given(polys(**small))
def test_conversion_round_trip(p):
    assert central_to_raw(raw_to_central(p)) == p


@convert_settings
@given(polys(basis=Basis.CENTRAL, **small))
def test_conversion_round_trip_from_central(p):
    assert raw_to_central(central_to_raw(p)) == p


@convert_settings
@given(polys(**small))
def test_conversion_is_a_ring_map(p):
    assert raw_to_central(p * p) == raw_to_central(p) * raw_to_central(p)


@given(polys())
def test_negate_entries_is_an_involution(p):
    assert p.negate_entries().negate_entries() == p


@given(polys())
def test_scale_entries_by_one_is_identity(p):
    assert p.scale_entries(1) == p


@given(polys())
def test_json_round_trip(p):
    assert MomentPolynomial.from_json_dict(p.to_json_dict()) == p


@given(polys(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_scale_entries_multiplicative_in_products(p, c):
    assert (p * p).scale_entries(c) == p.scale_entries(c) * p.scale_entries(c)
