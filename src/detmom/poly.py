"""Exact multivariate polynomials in the moments of a matrix-entry distribution.

Determinant moments E[det(A)^k] of an n x n matrix with i.i.d. entries are
polynomials with integer coefficients in the entry moments.  Two bases are
supported:

* RAW     -- symbols m_r = E[X^r] for r >= 1,
* CENTRAL -- symbols m_1 (the mean) and mu_r = E[(X - m_1)^r] for r >= 2.

mu_1 is identically zero and is never represented.

Every monomial has an exponent vector of length ``max_order + 1``: slot 0
holds the power of the mean m_1, slot r (2 <= r <= max_order) the power of the
order-r symbol of the basis, and slot 1 is always zero.  The grading weight of
a monomial is ``exp[0] + sum(r * exp[r] for r >= 2)``; E[det(A)^k] is
homogeneous of weight k*n in this grading.  `MomentPolynomial.terms` and the
JSON form show these dense vectors.

Inside, a monomial is one packed integer key, ``sum(exp[s] << (SLOT_BITS * s))``
(Kronecker substitution), so multiplying two monomials is one integer
addition, and trailing empty slots add nothing to the key: polynomials that
differ only in ``max_order`` have equal keys.  Comparing keys as integers
compares exponents from the highest slot down, which gives the canonical
term order.

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
and `MomentPolynomial.from_json_dict`) check their input: exponent vector
length, signs, the unused slot 1, the packing limit, and rational
coefficients; `MomentPolynomial.zero` and `MomentPolynomial.constant` have no
exponents to check.  Arithmetic, conversion and the structural maps build
their results from terms that are already checked, through a trusted
constructor that checks nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Iterator, Mapping, Union

from .errors import BasisMismatchError, MissingMomentError, OrderCapacityError

DEFAULT_MAX_ORDER = 8

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


class SymbolKind(Enum):
    RAW = "raw"
    CENTRAL = "central"
    MEAN = "mean"


@dataclass(frozen=True)
class MomentSymbol:
    """A single moment symbol: m_r, mu_r, or the mean m_1."""

    kind: SymbolKind
    order: int

    def __post_init__(self) -> None:
        if self.kind is SymbolKind.MEAN and self.order != 1:
            raise ValueError("the mean symbol has order 1")
        if self.kind is SymbolKind.CENTRAL and self.order < 2:
            raise ValueError("central symbols start at order 2 (mu_1 is zero)")
        if self.kind is SymbolKind.RAW and self.order < 1:
            raise ValueError("raw symbols start at order 1")

    @property
    def slot(self) -> int:
        """Index of this symbol in a dense exponent vector."""
        return 0 if self.order == 1 else self.order

    @property
    def basis(self) -> Basis:
        # The mean is legal in both bases; report it as CENTRAL-compatible
        # where it matters (the polynomial builders check compatibility).
        return Basis.RAW if self.kind is SymbolKind.RAW else Basis.CENTRAL


# -- packed keys -----------------------------------------------------------


def _pack(exp: ExpVector) -> int:
    key = 0
    for slot, e in enumerate(exp):
        key |= e << (SLOT_BITS * slot)
    return key


def _unpack(key: int, width: int) -> ExpVector:
    exp = []
    for _ in range(width):
        exp.append(key & _MASK)
        key >>= SLOT_BITS
    return tuple(exp)


def _key_weight(key: int) -> int:
    weight = key & _MASK
    key >>= 2 * SLOT_BITS  # slot 1 is always empty
    r = 2
    while key:
        weight += r * (key & _MASK)
        key >>= SLOT_BITS
        r += 1
    return weight


def _sort_key(key: int) -> tuple[int, int]:
    # Canonical term order: grading weight first, then exponents compared from
    # the highest-order symbol down, which is the order of the packed keys;
    # terms are listed in descending key order.
    return (_key_weight(key), key)


def _check_limit(weight: int) -> None:
    if weight >= WEIGHT_LIMIT:
        raise OrderCapacityError(
            f"grading weight {weight} reaches the packing limit {WEIGHT_LIMIT}"
        )


def _exact(c: Rational) -> Rational:
    """``c`` as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _clean(terms: Terms) -> Terms:
    """Drop zero coefficients and store integral values as int."""
    return {k: c if type(c) is int else _exact(c) for k, c in terms.items() if c}


def _mul_terms(a: Terms, b: Terms) -> Terms:
    """Product of two packed term maps; may hold zeros and integral Fractions."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((k1, c1),) = a.items()
        return {k1 + k2: c1 * c2 for k2, c2 in b.items()}
    out: Terms = {}
    get = out.get
    b_items = list(b.items())
    for k1, c1 in a.items():
        for k2, c2 in b_items:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


class MomentPolynomial:
    """Immutable exact polynomial in moment symbols of a fixed basis."""

    __slots__ = ("_basis", "_max_order", "_terms", "_top")

    def __init__(
        self,
        basis: Basis,
        terms: Mapping[ExpVector, Rational] | Iterable[tuple[ExpVector, Rational]],
        max_order: int = DEFAULT_MAX_ORDER,
    ):
        if max_order < 2:
            raise OrderCapacityError("max_order must be at least 2")
        width = max_order + 1
        summed: dict[int, Fraction] = {}
        top = 0
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coef in items:
            exp = tuple(exp)
            if len(exp) != width:
                raise OrderCapacityError(
                    f"exponent vector has length {len(exp)}, expected {width}"
                )
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            if len(exp) > 1 and exp[1] != 0:
                raise ValueError("slot 1 is unused (order-1 symbols live in slot 0)")
            c = Fraction(coef)
            if c == 0:
                continue
            weight = exp[0] + sum(r * e for r, e in enumerate(exp) if r >= 2)
            _check_limit(weight)
            top = max(top, weight)
            key = _pack(exp)
            summed[key] = summed.get(key, 0) + c
        self._basis = basis
        self._max_order = max_order
        self._terms = _clean(summed)
        self._top = top

    @classmethod
    def _make(cls, basis: Basis, terms: Terms, max_order: int, top: int) -> "MomentPolynomial":
        """Trusted constructor: ``terms`` are clean and their weights at most ``top``."""
        p = object.__new__(cls)
        p._basis = basis
        p._max_order = max_order
        p._terms = terms
        p._top = top if terms else 0
        return p

    def _like(self, terms: Terms, top: int | None = None) -> "MomentPolynomial":
        return MomentPolynomial._make(
            self._basis, terms, self._max_order, self._top if top is None else top
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: Basis, max_order: int = DEFAULT_MAX_ORDER) -> "MomentPolynomial":
        return cls.constant(0, basis, max_order)

    @classmethod
    def constant(
        cls, value: Rational, basis: Basis, max_order: int = DEFAULT_MAX_ORDER
    ) -> "MomentPolynomial":
        if max_order < 2:
            raise OrderCapacityError("max_order must be at least 2")
        c = _exact(Fraction(value))
        return cls._make(basis, {0: c} if c else {}, max_order, 0)

    @classmethod
    def monomial(
        cls,
        coef: Rational,
        powers: Mapping[int, int],
        basis: Basis,
        max_order: int = DEFAULT_MAX_ORDER,
    ) -> "MomentPolynomial":
        """Build ``coef * prod(symbol_r ** powers[r])``, keys are symbol orders."""
        exp = [0] * (max_order + 1)
        for order, e in powers.items():
            if order < 1:
                raise ValueError("symbol orders start at 1")
            if order > max_order:
                raise OrderCapacityError(
                    f"symbol of order {order} exceeds max_order {max_order}"
                )
            exp[0 if order == 1 else order] += e
        return cls(basis, {tuple(exp): Fraction(coef)}, max_order)

    # -- basic state -------------------------------------------------------

    @property
    def basis(self) -> Basis:
        return self._basis

    @property
    def max_order(self) -> int:
        return self._max_order

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> Iterator[tuple[ExpVector, Fraction]]:
        """Terms in canonical order (descending grading weight, then lex)."""
        for exp, coef in self._ordered():
            yield exp, Fraction(coef)

    def _ordered(self) -> list[tuple[ExpVector, Rational]]:
        # `terms` with the stored int or Fraction coefficients.
        width = self._max_order + 1
        terms = self._terms
        return [
            (_unpack(key, width), terms[key])
            for key in sorted(terms, key=_sort_key, reverse=True)
        ]

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
            if other._max_order != self._max_order:
                raise OrderCapacityError(
                    "cannot combine polynomials with different max_order "
                    f"({self._max_order} vs {other._max_order})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return MomentPolynomial.constant(other, self._basis, self._max_order)
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
        top = self._top + p._top
        _check_limit(top)
        return self._like(_clean(_mul_terms(self._terms, p._terms)), top)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MomentPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers need a nonnegative integer exponent")
        _check_limit(self._top * exponent)
        result = MomentPolynomial.constant(1, self._basis, self._max_order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- structure ---------------------------------------------------------

    def grading_weights(self) -> set[int]:
        """Set of grading weights of the monomials (empty for the zero polynomial)."""
        return {_key_weight(k) for k in self._terms}

    def negate_entries(self) -> "MomentPolynomial":
        """Image under X -> -X, i.e. every order-r symbol picks up (-1)^r.

        A monomial of grading weight w is multiplied by (-1)^w, so a
        polynomial is invariant iff all its weights are even.
        """
        return self._like(
            {k: -c if _key_weight(k) & 1 else c for k, c in self._terms.items()}
        )

    def scale_entries(self, c: Rational) -> "MomentPolynomial":
        """Image under X -> c*X: each monomial of weight w gains a factor c^w."""
        c = _exact(Fraction(c))
        return self._like(
            _clean({k: coef * c ** _key_weight(k) for k, coef in self._terms.items()})
        )

    def substitute(self, order: int, value: Rational) -> "MomentPolynomial":
        """Replace the order-``order`` symbol by a rational constant."""
        if order < 1 or order > self._max_order:
            raise OrderCapacityError(f"no symbol of order {order}")
        shift = SLOT_BITS * (0 if order == 1 else order)
        value = _exact(Fraction(value))
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
        values = {0: _exact(Fraction(mean))}
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
                        values[slot] = _exact(Fraction(moments[slot]))
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
        chunks: list[str] = []
        for i, (exp, coef) in enumerate(self._ordered()):
            factors = []
            for slot, e in enumerate(exp):
                if not e or slot == 1:
                    continue
                name = self._symbol_name(slot)
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

    __str__ = to_text

    def __repr__(self) -> str:
        return f"MomentPolynomial({self.to_text()!r}, basis={self._basis.value})"

    def to_json_dict(self) -> dict:
        return {
            "basis": self._basis.value,
            "max_order": self._max_order,
            "terms": [
                {
                    "coef": [str(c.numerator), str(c.denominator)],
                    "exp": list(exp),
                }
                for exp, c in self._ordered()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MomentPolynomial":
        basis = Basis(data["basis"])
        max_order = int(data["max_order"])
        terms = []
        for t in data["terms"]:
            num, den = (int(s) for s in t["coef"])
            terms.append((tuple(int(e) for e in t["exp"]), Fraction(num, den)))
        return cls(basis, terms, max_order)


# -- symbol builders -------------------------------------------------------


def raw_symbol(r: int, max_order: int = DEFAULT_MAX_ORDER) -> MomentPolynomial:
    """The raw moment m_r as a polynomial (r = 1 gives the mean)."""
    MomentSymbol(SymbolKind.RAW if r != 1 else SymbolKind.MEAN, r)
    return MomentPolynomial.monomial(1, {r: 1}, Basis.RAW, max_order)


def central_symbol(r: int, max_order: int = DEFAULT_MAX_ORDER) -> MomentPolynomial:
    """The central moment mu_r (r >= 2) as a polynomial."""
    MomentSymbol(SymbolKind.CENTRAL, r)
    return MomentPolynomial.monomial(1, {r: 1}, Basis.CENTRAL, max_order)


def central_mean(max_order: int = DEFAULT_MAX_ORDER) -> MomentPolynomial:
    """The mean m_1 tagged as a central-basis polynomial."""
    return MomentPolynomial.monomial(1, {1: 1}, Basis.CENTRAL, max_order)


# -- basis conversion ------------------------------------------------------


@lru_cache(maxsize=None)
def _central_in_raw(r: int, max_order: int) -> MomentPolynomial:
    # mu_r = sum_j C(r, j) m_j (-m_1)^(r-j), with m_0 = 1.
    m1 = raw_symbol(1, max_order)
    total = MomentPolynomial.zero(Basis.RAW, max_order)
    for j in range(r + 1):
        base = (
            MomentPolynomial.constant(1, Basis.RAW, max_order)
            if j == 0
            else raw_symbol(j, max_order)
        )
        total = total + comb(r, j) * (-1) ** (r - j) * base * m1 ** (r - j)
    return total


@lru_cache(maxsize=None)
def _raw_in_central(r: int, max_order: int) -> MomentPolynomial:
    # m_r = sum_j C(r, j) mu_j m_1^(r-j), with mu_0 = 1 and mu_1 = 0.
    m1 = central_mean(max_order)
    total = MomentPolynomial.zero(Basis.CENTRAL, max_order)
    for j in range(r + 1):
        if j == 1:
            continue
        base = (
            MomentPolynomial.constant(1, Basis.CENTRAL, max_order)
            if j == 0
            else central_symbol(j, max_order)
        )
        total = total + comb(r, j) * base * m1 ** (r - j)
    return total


def _convert(p: MomentPolynomial, target: Basis) -> MomentPolynomial:
    # The mean sits in slot 0 in both bases and maps to itself; each order-r
    # symbol (r >= 2) maps to its expansion E_r, a polynomial homogeneous of
    # weight r, so the result keeps the weight bound of ``p``.
    expand = _central_in_raw if target is Basis.RAW else _raw_in_central
    R = p.max_order

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
        base = expand(slot, R)._terms
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

    return MomentPolynomial._make(target, horner(p._terms, R), R, p._top)


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
