"""Rendering from packed keys matches a per-key reference rendering."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from detmom.poly import DENSE_ORDER, SLOT_BITS, Basis, MomentPolynomial

# -- the reference: unpack every key, sort by (weight, key) ----------------

_MASK = (1 << SLOT_BITS) - 1


def _unpack(key: int, width: int) -> tuple[int, ...]:
    exp = []
    for _ in range(width):
        exp.append(key & _MASK)
        key >>= SLOT_BITS
    return tuple(exp)


def _weight(key: int) -> int:
    exp = _unpack(key, max(1, -(-key.bit_length() // SLOT_BITS)))
    return exp[0] + sum(r * e for r, e in enumerate(exp) if r >= 2)


def reference_ordered(p: MomentPolynomial, min_order: int = DENSE_ORDER):
    terms = p._terms
    top = (max((key.bit_length() for key in terms), default=0) - 1) // SLOT_BITS
    width = max(min_order, top) + 1
    return [
        (_unpack(key, width), terms[key])
        for key in sorted(terms, key=lambda k: (_weight(k), k), reverse=True)
    ]


def reference_text(p: MomentPolynomial) -> str:
    if p.is_zero:
        return "0"
    chunks = []
    for i, (exp, coef) in enumerate(reference_ordered(p)):
        factors = []
        for slot, e in enumerate(exp):
            if not e or slot == 1:
                continue
            name = "m1" if slot == 0 else (
                f"m{slot}" if p.basis is Basis.RAW else f"mu{slot}"
            )
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coef)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = "*".join(factors)
        if i == 0:
            chunks.append(body if coef > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(chunks)


def reference_json(p: MomentPolynomial, min_order: int = DENSE_ORDER) -> dict:
    terms = p._terms
    top = (max((key.bit_length() for key in terms), default=0) - 1) // SLOT_BITS
    max_order = max(min_order, top)
    return {
        "basis": p.basis.value,
        "max_order": max_order,
        "terms": [
            {"coef": [str(c.numerator), str(c.denominator)], "exp": list(exp)}
            for exp, c in reference_ordered(p, max_order)
        ],
    }


# -- random polynomials ----------------------------------------------------

coefs = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.sampled_from([1, -1, 2, -2]),
    st.fractions(max_denominator=10**6),
)


@st.composite
def exponent_vectors(draw, top_slot: int = 20):
    width = draw(st.integers(min_value=0, max_value=top_slot + 1))
    exp = draw(st.lists(st.integers(min_value=0, max_value=6), min_size=width,
                        max_size=width))
    if len(exp) > 1:
        exp[1] = 0  # slot 1 is unused
    return tuple(exp)


@st.composite
def polys(draw):
    basis = draw(st.sampled_from(list(Basis)))
    terms = draw(st.lists(st.tuples(exponent_vectors(), coefs), max_size=12))
    return MomentPolynomial(basis, terms)


@settings(max_examples=300, deadline=None)
@given(polys(), st.integers(min_value=0, max_value=24))
def test_rendering_matches_the_reference(p, min_order):
    assert p.to_text() == str(p) == reference_text(p)
    assert p.to_json_dict() == reference_json(p)
    assert p.to_json_dict(min_order) == reference_json(p, min_order)
    assert list(p.terms()) == [(e, Fraction(c)) for e, c in reference_ordered(p)]


def test_zero_and_constants_match_the_reference():
    for basis in Basis:
        for value in (0, 1, -1, 7, Fraction(-3, 4), Fraction(1, 2)):
            p = MomentPolynomial.constant(value, basis)
            assert p.to_text() == reference_text(p)
            assert p.to_json_dict() == reference_json(p)
            assert p.to_json_dict(12) == reference_json(p, 12)
