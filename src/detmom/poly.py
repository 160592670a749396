"""Exact multivariate polynomials in the moments of a matrix-entry distribution.

Determinant moments E[det(A)^k] of an n x n matrix with i.i.d. entries are
polynomials with integer coefficients in the entry moments.  Two bases are
supported:

* RAW     -- symbols m_r = E[X^r] for r >= 1,
* CENTRAL -- symbols m_1 (the mean) and mu_r = E[(X - m_1)^r] for r >= 2.

mu_1 is identically zero and is never represented.

A monomial has an exponent vector: slot 0 holds the power of the mean m_1,
slot r >= 2 the power of the order-r symbol of the basis, and slot 1 is
always zero.  The grading weight of a monomial is
``exp[0] + sum(r * exp[r] for r >= 2)``; E[det(A)^k] is homogeneous of
weight k*n in this grading.

Inside, a monomial is one packed integer key, ``sum(exp[s] << (SLOT_BITS * s))``
(Kronecker substitution), so multiplying two monomials is one integer
addition, and trailing empty slots add nothing to the key.  A polynomial
therefore has no width and no capacity: any symbol order is allowed, up to
the packing limit below.

Rendering (`MomentPolynomial.to_text`, `MomentPolynomial.to_json_dict` and
`MomentPolynomial.terms`) reads each key once, in one pass: the key's bytes
in native order, cast to unsigned 16-bit slots, give its exponent vector at
C speed, and one dot product with the slot orders its grading weight.  The
canonical term order is by (weight, key), descending: grading weight first,
then the key, since comparing keys as integers compares exponents from the
highest slot down.  The dense vectors that `terms` and the JSON form write
run to slot ``max(DENSE_ORDER, highest nonzero slot)``.

A key holds only as long as no exponent reaches ``2**SLOT_BITS``; a larger one
would carry into the next slot.  Every polynomial therefore carries an upper
bound on the grading weights of its terms, which also bounds each exponent.
Any operation whose result could reach `WEIGHT_LIMIT` raises
`OrderCapacityError` before it starts.

Coefficients are exact: a Python ``int`` for an integral value and a
`fractions.Fraction` only for a value that is not, so the integer polynomials
the formulas produce never touch `Fraction` arithmetic.  `terms` and
`constant_term` still return `Fraction` values.

The public constructors (``MomentPolynomial(...)``, `MomentPolynomial.monomial`
and `MomentPolynomial.from_json_dict`) check their input: signs, the unused
slot 1, the packing limit, rational coefficients and, in the JSON form,
vector lengths that agree with the written ``max_order``;
`MomentPolynomial.zero` and `MomentPolynomial.constant` have no exponents to
check.  Arithmetic, conversion and the structural maps build their results
from terms that are already checked, through a trusted constructor that
checks nothing again.
"""

from __future__ import annotations

import numbers
import sys
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import getitem, mul
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import BasisMismatchError, MissingMomentError, OrderCapacityError

# Dense exponent vectors, in `MomentPolynomial.terms` and the JSON form, run
# at least to this slot, so their width does not change with the terms.
DENSE_ORDER = 8

Rational = Union[int, Fraction]
ExpVector = tuple[int, ...]

# Bits per exponent slot of a packed key, and the bound on grading weights
# (hence on every exponent) that keeps the slots apart.
SLOT_BITS = 16
WEIGHT_LIMIT = 1 << SLOT_BITS
_MASK = WEIGHT_LIMIT - 1

# Packed terms: key -> nonzero int, or Fraction when the value is not integral.
Terms = dict[int, Rational]


class Basis(Enum):
    RAW = "raw"
    CENTRAL = "central"


# -- packed keys -----------------------------------------------------------


def _pack(exp: ExpVector) -> int:
    key = 0
    for slot, e in enumerate(exp):
        key |= e << (SLOT_BITS * slot)
    return key


def _top_slot(terms: Terms) -> int:
    """Highest slot with a nonzero exponent in any key, -1 when there is none."""
    return (max((key.bit_length() for key in terms), default=0) - 1) // SLOT_BITS


def _rows(
    terms: Terms, width: Optional[int] = None
) -> list[tuple[int, int, list[int], Rational]]:
    """``(weight, key, exponents, coef)`` per term, in canonical order.

    The exponents are the key's first ``width`` slots (by default, through
    the highest nonzero slot of any key), read at C speed: the key's bytes
    in native order, cast to unsigned 16-bit slots.  The rows are sorted by
    (weight, key), descending; keys are distinct, so a tie never compares
    the rest of a row.
    """
    if width is None:
        width = _top_slot(terms) + 1
    size = 2 * width
    order = sys.byteorder
    grading = (1, 0, *range(2, width))  # slot 1 is always empty
    rows = []
    for key, coef in terms.items():
        exp = memoryview(key.to_bytes(size, order)).cast("H").tolist()
        if order == "big":  # the highest slot came first
            exp.reverse()
        rows.append((sum(map(mul, exp, grading)), key, exp, coef))
    rows.sort(reverse=True)
    return rows


class _Factors(dict):
    """Text of one symbol's power by exponent: "" for 0, the name for 1."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__({0: "", 1: name})
        self.name = name

    def __missing__(self, e: int) -> str:
        text = self[e] = f"{self.name}^{e}"
        return text


def _check_limit(weight: int) -> None:
    if weight >= WEIGHT_LIMIT:
        raise OrderCapacityError(
            f"grading weight {weight} reaches the packing limit {WEIGHT_LIMIT}"
        )


def _exact(c: Rational) -> Rational:
    """``c`` as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _rational(value: Rational) -> Rational:
    """A value from a caller as an exact int or Fraction.

    Floats (and other inexact reals) raise TypeError: converting one would
    silently keep its binary rounding, e.g. 0.1 as
    3602879701896397/36028797018963968.
    """
    if type(value) is int:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Rational):
        raise TypeError(
            f"detmom computes exactly; got the inexact {type(value).__name__} "
            f"{value!r} (pass an int or a Fraction)"
        )
    return _exact(Fraction(value))


def _clean(terms: Terms) -> Terms:
    """Drop zero coefficients and store integral values as int."""
    return {k: c if type(c) is int else _exact(c) for k, c in terms.items() if c}


def _mul_terms(a: Terms, b: Terms, out: Optional[Terms] = None, w: int = 1) -> Terms:
    """Add ``w * a * b`` into ``out``, a new dict by default, and return it.

    This is the one term-product loop: polynomial products, `sum_of_products`
    and basis conversion all run through it.  The result may hold zeros and
    integral Fractions.
    """
    if out is None:
        out = {}
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    b_items = list(b.items())
    for k1, c1 in a.items():
        c1 *= w
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _divide(c: Rational, divisor: int) -> Rational:
    """``c / divisor`` exactly, as an int when the quotient is integral."""
    if type(c) is int:
        q, r = divmod(c, divisor)
        return q if not r else Fraction(c, divisor)
    return _exact(c / divisor)


def _power(base, exponent: int, one):
    """``base ** exponent`` by repeated squaring, from the unit ``one``."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        base = base * base if exponent > 1 else base
        exponent >>= 1
    return result


def sum_of_products(
    basis: Basis,
    triples: Iterable[tuple[int, "MomentPolynomial", "MomentPolynomial"]],
    divisor: int = 1,
) -> "MomentPolynomial":
    """``sum(w * a * b for w, a, b in triples) / divisor``, for int weights ``w``.

    Every product goes through the one term-product loop, `_mul_terms`, into
    one term map, cleaned once at the end, where ``acc = acc + w * a * b``
    would build a polynomial per product and copy the accumulator once per
    term.  ``a * b`` for two polynomials is this sum with one triple.
    Raises `BasisMismatchError` for an operand of another basis and
    `OrderCapacityError` before any product that could reach the packing
    limit.
    """
    out: Terms = {}
    top = 0
    for w, a, b in triples:
        if a._basis is not basis or b._basis is not basis:
            raise BasisMismatchError(
                f"cannot combine {a._basis.value} and {b._basis.value} polynomials "
                f"into a {basis.value} sum"
            )
        if not a._terms or not b._terms:
            continue
        weight = a._top + b._top
        _check_limit(weight)
        top = max(top, weight)
        _mul_terms(a._terms, b._terms, out, w)
    if divisor == 1:
        terms = _clean(out)
    else:
        terms = {k: _divide(c, divisor) for k, c in out.items() if c}
    return MomentPolynomial._make(basis, terms, top)


class MomentPolynomial:
    """Immutable exact polynomial in moment symbols of a fixed basis."""

    __slots__ = ("_basis", "_terms", "_top")

    def __init__(
        self,
        basis: Basis,
        terms: Mapping[ExpVector, Rational] | Iterable[tuple[ExpVector, Rational]],
    ):
        summed: dict[int, Fraction] = {}
        top = 0
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coef in items:
            exp = tuple(exp)
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            if len(exp) > 1 and exp[1] != 0:
                raise ValueError("slot 1 is unused (order-1 symbols live in slot 0)")
            c = _rational(coef)
            if c == 0:
                continue
            weight = sum((r or 1) * e for r, e in enumerate(exp))  # slot 1 is empty
            _check_limit(weight)
            top = max(top, weight)
            key = _pack(exp)
            summed[key] = summed.get(key, 0) + c
        self._basis = basis
        self._terms = _clean(summed)
        self._top = top

    @classmethod
    def _make(cls, basis: Basis, terms: Terms, top: int) -> "MomentPolynomial":
        """Trusted constructor: ``terms`` are clean and their weights at most ``top``."""
        p = object.__new__(cls)
        p._basis = basis
        p._terms = terms
        p._top = top if terms else 0
        return p

    def _like(self, terms: Terms, top: int | None = None) -> "MomentPolynomial":
        return MomentPolynomial._make(
            self._basis, terms, self._top if top is None else top
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: Basis) -> "MomentPolynomial":
        return cls.constant(0, basis)

    @classmethod
    def constant(cls, value: Rational, basis: Basis) -> "MomentPolynomial":
        c = _rational(value)
        return cls._make(basis, {0: c} if c else {}, 0)

    @classmethod
    def monomial(
        cls, coef: Rational, powers: Mapping[int, int], basis: Basis
    ) -> "MomentPolynomial":
        """Build ``coef * prod(symbol_r ** powers[r])``, keys are symbol orders."""
        exp = [0] * (max(powers, default=0) + 1)
        for order, e in powers.items():
            if order < 1:
                raise ValueError("symbol orders start at 1")
            exp[0 if order == 1 else order] += e
        return cls(basis, {tuple(exp): coef})

    # -- basic state -------------------------------------------------------

    @property
    def basis(self) -> Basis:
        return self._basis

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[ExpVector, Fraction]]:
        """Terms in canonical order (descending grading weight, then lex)."""
        terms = self._terms
        for _, _, exp, coef in _rows(terms, max(DENSE_ORDER, _top_slot(terms)) + 1):
            yield tuple(exp), Fraction(coef)

    def constant_term(self) -> Fraction:
        return Fraction(self._terms.get(0, 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentPolynomial):
            return NotImplemented
        return self._basis is other._basis and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._basis, frozenset(self._terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other: object) -> "MomentPolynomial | None":
        if isinstance(other, MomentPolynomial):
            if other._basis is not self._basis:
                raise BasisMismatchError(
                    f"cannot combine {self._basis.value} and {other._basis.value} polynomials"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MomentPolynomial.constant(other, self._basis)
        return None

    def __add__(self, other: object) -> "MomentPolynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        big, small = (self, p) if len(self._terms) >= len(p._terms) else (p, self)
        out = dict(big._terms)
        for k, c in small._terms.items():
            prior = out.get(k)
            if prior is None:
                out[k] = c
                continue
            s = prior + c
            if not s:
                del out[k]
            else:
                out[k] = s if type(s) is int else _exact(s)
        return self._like(out, max(self._top, p._top))

    __radd__ = __add__

    def __neg__(self) -> "MomentPolynomial":
        return self._like({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: object) -> "MomentPolynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other: object) -> "MomentPolynomial":
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other: object) -> "MomentPolynomial":
        if isinstance(other, (int, Fraction)):
            c = _exact(other)
            return self._like(_clean({k: v * c for k, v in self._terms.items()}))
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return sum_of_products(self._basis, ((1, self, p),))

    __rmul__ = __mul__

    def _divided(self, divisor: int) -> "MomentPolynomial":
        """``self / divisor`` for a positive int, one exact division per term."""
        return self._like({k: _divide(c, divisor) for k, c in self._terms.items()})

    def __pow__(self, exponent: int) -> "MomentPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a nonnegative integer exponent")
        _check_limit(self._top * exponent)
        return _power(self, exponent, MomentPolynomial.constant(1, self._basis))

    # -- structure ---------------------------------------------------------

    def grading_weights(self) -> set[int]:
        """Set of grading weights of the monomials (empty for the zero polynomial)."""
        return {w for w, *_ in _rows(self._terms)}

    def negate_entries(self) -> "MomentPolynomial":
        """Image under X -> -X, i.e. every order-r symbol picks up (-1)^r.

        A monomial of grading weight w is multiplied by (-1)^w, so a
        polynomial is invariant iff all its weights are even.
        """
        return self.scale_entries(-1)

    def scale_entries(self, c: Rational) -> "MomentPolynomial":
        """Image under X -> c*X: each monomial of weight w gains a factor c^w."""
        c = _rational(c)
        return self._like(_clean({k: x * c**w for w, k, _, x in _rows(self._terms)}))

    def substitute(self, order: int, value: Rational) -> "MomentPolynomial":
        """Replace the order-``order`` symbol by a rational constant."""
        if order < 1:
            raise ValueError(f"no symbol of order {order}")
        shift = SLOT_BITS * (0 if order == 1 else order)
        value = _rational(value)
        out: Terms = {}
        for key, coef in self._terms.items():
            power = (key >> shift) & _MASK
            rest = key - (power << shift)
            out[rest] = out.get(rest, 0) + coef * value**power
        return self._like(_clean(out))

    def evaluate(self, moments: Mapping[int, Rational], mean: Rational) -> Fraction:
        """Exact value at the given moment assignment.

        ``moments`` maps symbol order (>= 2) to a rational; ``mean`` supplies
        m_1.  Every symbol occurring in the polynomial must be covered.
        """
        total: Rational = 0
        values = {0: _rational(mean)}
        for key, coef in self._terms.items():
            val = coef
            slot = 0
            while key:
                e = key & _MASK
                if e:
                    if slot not in values:
                        if slot not in moments:
                            raise MissingMomentError(
                                f"no value supplied for the order-{slot} moment"
                            )
                        values[slot] = _rational(moments[slot])
                    val *= values[slot] ** e
                key >>= SLOT_BITS
                slot += 1
            total += val
        return Fraction(total)

    # -- presentation ------------------------------------------------------

    def _symbol_name(self, slot: int) -> str:
        if slot == 0:
            return "m1"
        if self._basis is Basis.RAW:
            return f"m{slot}"
        return f"mu{slot}"

    def to_text(self) -> str:
        """Canonical human-readable form, e.g. ``2*m4^2 - 8*m1^2*m3^2 + 6*m2^4``."""
        if not self._terms:
            return "0"
        width = _top_slot(self._terms) + 1
        factors = [_Factors(self._symbol_name(slot)) for slot in range(width)]
        chunks: list[str] = []
        for _, _, exp, coef in _rows(self._terms, width):
            body = "*".join(filter(None, map(getitem, factors, exp)))
            num, den = coef.numerator, coef.denominator
            mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
            if not body:
                body = mag
            elif mag != "1":
                body = f"{mag}*{body}"
            if chunks:
                chunks.append(f"- {body}" if num < 0 else f"+ {body}")
            else:
                chunks.append(f"-{body}" if num < 0 else body)
        return " ".join(chunks)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"MomentPolynomial({self.to_text()!r}, basis={self._basis.value})"

    def to_json_dict(self, min_order: int = DENSE_ORDER) -> dict:
        """JSON form; its vectors run to slot ``max_order``, at least ``min_order``."""
        max_order = max(min_order, _top_slot(self._terms))
        return {
            "basis": self._basis.value,
            "max_order": max_order,
            "terms": [
                {
                    "coef": [str(c.numerator), str(c.denominator)],
                    "exp": exp,
                }
                for _, _, exp, c in _rows(self._terms, max_order + 1)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MomentPolynomial":
        basis = Basis(data["basis"])
        width = int(data["max_order"]) + 1
        terms = []
        for t in data["terms"]:
            exp = tuple(int(e) for e in t["exp"])
            if len(exp) != width:
                raise ValueError(
                    f"exponent vector has length {len(exp)}, expected {width}"
                )
            num, den = (int(s) for s in t["coef"])
            terms.append((exp, Fraction(num, den)))
        return cls(basis, terms)


# -- symbol builders -------------------------------------------------------


def raw_symbol(r: int) -> MomentPolynomial:
    """The raw moment m_r as a polynomial (r = 1 gives the mean)."""
    if r < 1:
        raise ValueError("raw symbols start at order 1")
    return MomentPolynomial.monomial(1, {r: 1}, Basis.RAW)


def central_symbol(r: int) -> MomentPolynomial:
    """The central moment mu_r (r >= 2) as a polynomial."""
    if r < 2:
        raise ValueError("central symbols start at order 2 (mu_1 is zero)")
    return MomentPolynomial.monomial(1, {r: 1}, Basis.CENTRAL)


def central_mean() -> MomentPolynomial:
    """The mean m_1 tagged as a central-basis polynomial."""
    return MomentPolynomial.monomial(1, {1: 1}, Basis.CENTRAL)


# -- basis conversion ------------------------------------------------------


@lru_cache(maxsize=None)
def _shifted(r: int, target: Basis) -> MomentPolynomial:
    """The order-r symbol of the other basis, written in ``target``'s symbols.

    Both directions expand X = (X - m_1) + m_1 binomially, as
    sum_j C(r, j) s_j c^(r-j) with s_0 = 1.  Into the raw basis,
    (c, s_j) = (-m_1, m_j) gives mu_r; into the central basis,
    (c, s_j) = (m_1, mu_j) gives m_r, with no j = 1 term since mu_1 = 0.
    """
    raw = target is Basis.RAW
    c = MomentPolynomial.monomial(-1 if raw else 1, {1: 1}, target)
    s = [MomentPolynomial.monomial(1, {j: 1} if j else {}, target) for j in range(r + 1)]
    return sum_of_products(
        target, ((comb(r, j), s[j], c ** (r - j)) for j in range(r + 1) if raw or j != 1)
    )


def _convert(p: MomentPolynomial, target: Basis) -> MomentPolynomial:
    # The mean sits in slot 0 in both bases and maps to itself; each order-r
    # symbol (r >= 2) maps to its expansion E_r = `_shifted` (r, target), a
    # polynomial homogeneous of weight r, so the result keeps the weight
    # bound of ``p``.

    def horner(terms: Terms, slot: int) -> Terms:
        # ``terms`` use slots 0..slot only.  Write them as sum_e P_e * x^e in
        # the order-``slot`` symbol x, convert each P_e one slot lower, and
        # sum by Horner's rule, so each step multiplies by the small E_slot.
        if slot < 2:
            return terms
        shift = SLOT_BITS * slot
        parts: dict[int, Terms] = {}
        for key, coef in terms.items():
            e = key >> shift
            parts.setdefault(e, {})[key - (e << shift)] = coef
        if not any(parts):  # no term uses this slot
            return horner(terms, slot - 1)
        base = _shifted(slot, target)._terms
        acc: Terms = {}
        for e in range(max(parts), -1, -1):
            if acc:
                acc = _clean(_mul_terms(acc, base))
            part = parts.get(e)
            if part:
                get = acc.get
                for key, coef in horner(part, slot - 1).items():
                    acc[key] = get(key, 0) + coef
        return _clean(acc)

    return MomentPolynomial._make(target, horner(p._terms, _top_slot(p._terms)), p._top)


def central_to_raw(p: MomentPolynomial) -> MomentPolynomial:
    """Rewrite a central-basis polynomial in raw moments m_r."""
    if p.basis is not Basis.CENTRAL:
        raise BasisMismatchError("central_to_raw expects a central-basis polynomial")
    return _convert(p, Basis.RAW)


def raw_to_central(p: MomentPolynomial) -> MomentPolynomial:
    """Rewrite a raw-basis polynomial in the mean and central moments mu_r."""
    if p.basis is not Basis.RAW:
        raise BasisMismatchError("raw_to_central expects a raw-basis polynomial")
    return _convert(p, Basis.CENTRAL)
