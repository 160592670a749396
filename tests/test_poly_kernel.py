"""The packed-key polynomial kernel against a plain tuple-key reference.

`Ref` below is the textbook representation: a dict from dense exponent
tuples to `Fraction` coefficients, multiplied pair by pair.  Every kernel
result is compared term by term, through `MomentPolynomial.terms`, with the
same computation done in `Ref`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmom.errors import BasisMismatchError, OrderCapacityError
from detmom.formulas import _d_factor, fourth_moment, second_moment, sixth_moment_zero_mean
from detmom.poly import (
    DENSE_ORDER,
    WEIGHT_LIMIT,
    Basis,
    MomentPolynomial,
    central_to_raw,
    raw_to_central,
    sum_of_products,
)

WIDTH = DENSE_ORDER + 1


class Ref:
    """Reference polynomial: {exponent tuple: nonzero Fraction}."""

    def __init__(self, terms=()):
        self.t = {}
        for exp, c in terms.items() if isinstance(terms, dict) else terms:
            self.t[exp] = self.t.get(exp, 0) + Fraction(c)
        self.t = {e: c for e, c in self.t.items() if c}

    @classmethod
    def sym(cls, order):
        exp = [0] * WIDTH
        exp[0 if order == 1 else order] = 1
        return cls({tuple(exp): 1})

    def __add__(self, other):
        other = other if isinstance(other, Ref) else Ref({(0,) * WIDTH: other})
        return Ref(list(self.t.items()) + list(other.t.items()))

    def __mul__(self, other):
        other = other if isinstance(other, Ref) else Ref({(0,) * WIDTH: other})
        out = {}
        for e1, c1 in self.t.items():
            for e2, c2 in other.t.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Ref(out)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):
        return self + (-1) * other

    def __pow__(self, k):
        out = Ref({(0,) * WIDTH: 1})
        for _ in range(k):
            out = out * self
        return out


def ref_convert(p: Ref, to_raw: bool) -> Ref:
    # mu_r = sum_j C(r, j) m_j (-m_1)^(r-j);  m_r = sum_j C(r, j) mu_j m_1^(r-j).
    def expand(r):
        parts = [comb(r, j) * (-1 if to_raw else 1) ** (r - j)
                 * (Ref.sym(j) if j else Ref({(0,) * WIDTH: 1})) * Ref.sym(1) ** (r - j)
                 for j in range(r + 1) if to_raw or j != 1]
        return sum(parts, Ref())

    total = Ref()
    for exp, c in p.t.items():
        term = c * Ref.sym(1) ** exp[0]
        for r in range(2, WIDTH):
            term = term * expand(r) ** exp[r]
        total = total + term
    return total


def assert_same(p: MomentPolynomial, ref: Ref) -> None:
    assert dict(p.terms()) == ref.t
    assert all(type(c) is Fraction for _, c in p.terms())


# -- random polynomials ----------------------------------------------------


@st.composite
def pairs(draw, top_order=6, top_exp=3, terms=4):
    """Raw terms, (dense exponent vector, coefficient), repeats allowed."""
    exps = st.lists(st.integers(0, top_exp), min_size=top_order, max_size=top_order).map(
        lambda e: (e[0], 0, *e[1:]) + (0,) * (WIDTH - 1 - top_order)
    )
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return draw(st.lists(st.tuples(exps, coefs), max_size=terms))


def build(raw, basis=Basis.RAW):
    return MomentPolynomial(basis, raw), Ref(raw)


@given(pairs(), pairs())
def test_ring_operations_match_reference(a_raw, b_raw):
    (a, ra), (b, rb) = build(a_raw), build(b_raw)
    assert_same(a + b, ra + rb)
    assert_same(a - b, ra - rb)
    assert_same(a * b, ra * rb)
    assert_same(3 * a - Fraction(1, 2), 3 * ra - Fraction(1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), pairs(), pairs()), max_size=4),
    st.sampled_from((1, 2, 3, 6)),
)
def test_sum_of_products_matches_reference(triples, divisor):
    got = sum_of_products(
        Basis.RAW, [(w, build(a)[0], build(b)[0]) for w, a, b in triples], divisor
    )
    want = sum((w * Ref(a) * Ref(b) for w, a, b in triples), Ref())
    assert_same(got, Fraction(1, divisor) * want)
    assert got.basis is Basis.RAW


def test_sum_of_products_refuses_mixed_bases_and_the_packing_limit():
    raw = MomentPolynomial.monomial(1, {2: 1}, Basis.RAW)
    central = MomentPolynomial.monomial(1, {2: 1}, Basis.CENTRAL)
    with pytest.raises(BasisMismatchError):
        sum_of_products(Basis.RAW, [(1, raw, raw), (1, raw, central)])
    with pytest.raises(BasisMismatchError):
        sum_of_products(Basis.RAW, [(1, central, central)])
    top = MomentPolynomial.monomial(1, {1: WEIGHT_LIMIT - 1}, Basis.RAW)
    m1 = MomentPolynomial.monomial(1, {1: 1}, Basis.RAW)
    two = MomentPolynomial.constant(2, Basis.RAW)
    assert sum_of_products(Basis.RAW, [(1, top, two)]) == 2 * top
    with pytest.raises(OrderCapacityError):
        sum_of_products(Basis.RAW, [(1, top, m1)])


@settings(max_examples=50, deadline=None)
@given(pairs(terms=3), st.integers(0, 4))
def test_powers_match_reference(raw, k):
    p, ref = build(raw)
    assert_same(p**k, ref**k)


@settings(max_examples=40, deadline=None)
@given(pairs(top_order=4, top_exp=2, terms=3))
def test_conversions_match_reference(raw):
    p, ref = build(raw, Basis.RAW)
    assert_same(raw_to_central(p), ref_convert(ref, to_raw=False))
    q, ref = build(raw, Basis.CENTRAL)
    assert_same(central_to_raw(q), ref_convert(ref, to_raw=True))


# -- the closed forms, rebuilt in the reference arithmetic -----------------


def ref_second_moment(n):
    if n == 0:
        return Ref({(0,) * WIDTH: 1})
    m1, m2 = Ref.sym(1), Ref.sym(2)
    return factorial(n) * (m2 + (n - 1) * m1**2) * (m2 - m1**2) ** (n - 1)


def ref_fourth_moment(n):
    m1, mu2, mu3, mu4 = (Ref.sym(r) for r in (1, 2, 3, 4))
    excess = mu4 - 3 * mu2**2
    total = Ref()
    for w in range(3):
        for s in range(4 - 2 * w + 1):
            for c in range(n - s + 1):
                d = _d_factor(w, c)
                if d:
                    coef = Fraction(comb(4 - 2 * w, s) * (1 + c) * d,
                                    factorial(n - c - s) * factorial(2 - w) * factorial(w))
                    total = total + (coef * m1 ** (s + 2 * w) * mu2 ** (2 * c - w)
                                     * mu3**s * excess ** (n - c - s))
    return factorial(n) ** 2 * total


def ref_sixth_moment_zero_mean(n):
    m2, m3, m4, m6 = (Ref.sym(r) for r in (2, 3, 4, 6))
    q6 = m6 - 10 * m3**2 - 15 * m4 * m2 + 30 * m2**3
    q4 = m4 * m2 - 3 * m2**3
    total = Ref()
    for j in range(n + 1):
        for i in range(j + 1):
            for c in range(n - j + 1):
                coef = Fraction((1 + i) * (2 + i) * factorial(4 + i) * comb(10, c)
                                * comb(14 + j + 2 * i, j - i), 48 * factorial(n - j - c))
                total = total + (coef * q6 ** (n - j - c) * q4 ** (j - i)
                                 * m3 ** (2 * c) * m2 ** (3 * i))
    return factorial(n) ** 2 * total


@pytest.mark.parametrize("n", range(9))
def test_closed_forms_match_reference(n):
    assert_same(second_moment(n), ref_second_moment(n))
    f4 = ref_fourth_moment(n)
    assert_same(fourth_moment(n), f4)
    assert_same(central_to_raw(fourth_moment(n)), ref_convert(f4, to_raw=True))
    assert_same(sixth_moment_zero_mean(n), ref_sixth_moment_zero_mean(n))


# -- representation --------------------------------------------------------


def test_integral_coefficients_are_stored_as_int():
    half = MomentPolynomial.monomial(Fraction(1, 2), {2: 1}, Basis.RAW)
    assert type(next(iter(half._terms.values()))) is Fraction
    assert all(type(c) is int for c in (4 * half)._terms.values())
    assert all(type(c) is int for c in fourth_moment(6)._terms.values())


def test_exponent_at_the_packing_limit_raises_instead_of_wrapping():
    top = WEIGHT_LIMIT - 1
    p = MomentPolynomial.monomial(1, {1: top}, Basis.RAW)
    ((exp, coef),) = p.terms()
    assert exp[0] == top and coef == 1
    m1 = MomentPolynomial.monomial(1, {1: 1}, Basis.RAW)
    # One more power of m_1 would carry into the next slot of the key.
    with pytest.raises(OrderCapacityError):
        p * m1
    with pytest.raises(OrderCapacityError):
        p**2
    with pytest.raises(OrderCapacityError):
        MomentPolynomial.monomial(1, {1: top + 1}, Basis.RAW)
    with pytest.raises(OrderCapacityError):
        MomentPolynomial(Basis.RAW, {(top + 1,) + (0,) * 8: 1})
    # The bound is on grading weight, which caps every exponent.
    with pytest.raises(OrderCapacityError):
        MomentPolynomial.monomial(1, {2: WEIGHT_LIMIT // 2}, Basis.RAW)
