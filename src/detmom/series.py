"""Truncated exponential generating functions with exact polynomial coefficients.

A ``TruncatedEGF`` holds the coefficients of t^0 .. t^order of a formal power
series whose coefficients are `MomentPolynomial`s (constants are polynomials
too).  Everything is formal: no convergence is implied, and all operations are
exact term manipulation over the rationals.

The method works with one kind of series, F_k(t) = sum_n f_k(n) t^n / n!^2:
the coefficient of t^n is a_n = f_k(n) / n!^2, and `det_moment` recovers
f_k(n) = n!^2 a_n from any series.

The classic species constructions are available on zero-constant-term series
``a``: ``a.exp()`` builds SET(a), ``a.geometric()`` builds SEQ(a) = 1/(1-a),
and ``a.log_geometric()`` builds CYC(a) = ln(1/(1-a)).

Storage.  A series keeps the scaled coefficients s_n = n! * a_n, not a_n.  A
product of exponential generating functions is a binomial convolution of the
scaled sequences, so the series that the formulas factor (and every series
with integral scaled coefficients) stay in Python ints where a_n would be
`Fraction`s (Flajolet & Sedgewick, *Analytic Combinatorics*, ch. II).  The
plain coefficients `TruncatedEGF.coeffs` are derived on each request, not
kept: a_n = s_n / n!, one exact division of each term of s_n by the int n!,
which stays an int where it divides and becomes a `Fraction` only where not.
With A the scaled input and every sum over j = 1..d:

* product        (ab)_d = sum_{i=0..d} C(d, i) a_i b_{d-i};
* exp            E_0 = 1,  E_d = sum_j C(d-1, j-1) A_j E_{d-j}, from E' = A'E;
* geometric      G_0 = 1,  G_d = sum_j C(d, j) A_j G_{d-j}, from G = 1 + AG;
* log_geometric  L_0 = 0,  L_d = sum_j C(d-1, j-1) A_j G_{d-j}, from L' = A'G;
* compose        f(inner) = sum_d S_d P_d with P_0 = 1 and
                 P_d = inner^d / d! = P_{d-1} * inner / d.  The division
                 keeps ints: for an inner series with zero constant term
                 and integral scaled coefficients, inner^d / d! (a set of d
                 structures) has integral scaled coefficients too.

Each output coefficient is one call of `detmom.poly.sum_of_products`, which
adds every weighted product into a single term map through the one
term-product loop, `detmom.poly._mul_terms`.  The series 1 is `_unit`, the
start of `pow` and the P_0 of `compose`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Sequence, Union

from .poly import Basis, MomentPolynomial, _power, sum_of_products


Coefflike = Union[MomentPolynomial, int, Fraction]
Scaled = tuple[MomentPolynomial, ...]


class TruncatedEGF:
    """Truncated formal power series in t; immutable.

    ``TruncatedEGF(coeffs)`` takes the plain coefficients a_n of
    t^0 .. t^order; the series stores n! * a_n (see the module docstring).
    """

    __slots__ = ("_s",)

    def __init__(self, coeffs: Sequence[MomentPolynomial]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        basis = coeffs[0].basis
        for c in coeffs:
            if c.basis is not basis:
                raise ValueError("series coefficients must share a basis")
        self._s = tuple(factorial(n) * c for n, c in enumerate(coeffs))

    def _like(self, s: Iterable[MomentPolynomial]) -> "TruncatedEGF":
        """Trusted constructor from scaled coefficients of one basis."""
        series = object.__new__(TruncatedEGF)
        series._s = tuple(s)
        return series

    # -- state -------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[MomentPolynomial, ...]:
        """The plain coefficients a_n = s_n / n!, derived on each request."""
        return tuple(map(self.coefficient, range(len(self._s))))

    @property
    def order(self) -> int:
        return len(self._s) - 1

    @property
    def basis(self) -> Basis:
        return self._s[0].basis

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")

    def coefficient(self, n: int) -> MomentPolynomial:
        self._check_index(n)
        return self._s[n]._divided(factorial(n))

    def truncate(self, order: int) -> "TruncatedEGF":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return self._like(self._s[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self._s == other._s

    def __hash__(self) -> int:
        return hash(self._s)

    def __repr__(self) -> str:
        return f"TruncatedEGF({list(self.coeffs)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self._like(a + b for a, b in zip(self._s, other._s))

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        return self._like(a - b for a, b in zip(self._s, other._s))

    def __mul__(self, other: object) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            n = min(self.order, other.order)
            return self._like(_convolve(self._s, other._s, n, self.basis))
        if isinstance(other, (int, Fraction, MomentPolynomial)):
            return self._like(c * other for c in self._s)
        return NotImplemented

    __rmul__ = __mul__

    def pow(self, exponent: int) -> "TruncatedEGF":
        """Integer power by repeated squaring; works for any constant term."""
        if exponent < 0:
            raise ValueError("series powers need a nonnegative exponent")
        return _power(self, exponent, self._like(_unit(self.basis, self.order)))

    # -- species constructions (zero constant term required) ---------------

    def _require_zero_constant(self, op: str) -> None:
        if not self._s[0].is_zero:
            raise ValueError(f"{op} requires a series with zero constant term")

    def _recurrence(self, first: int, shift: int, prior: Scaled | None) -> list:
        """out_d = sum_j C(d - shift, j - shift) A_j R_{d-j}, R = ``prior`` or out.

        ``first`` is the constant out_0: 1 or 0.
        """
        a = self._s
        basis = self.basis
        out = [MomentPolynomial.constant(first, basis)]
        r = out if prior is None else prior
        for d in range(1, len(a)):
            out.append(
                sum_of_products(
                    basis,
                    ((comb(d - shift, j - shift), a[j], r[d - j])
                     for j in range(1, d + 1) if a[j]),
                )
            )
        return out

    def exp(self) -> "TruncatedEGF":
        """SET construction: formal exp via the derivative recurrence."""
        self._require_zero_constant("exp")
        return self._like(self._recurrence(1, 1, None))

    def geometric(self) -> "TruncatedEGF":
        """SEQ construction: 1/(1 - a) via the convolution recurrence."""
        self._require_zero_constant("geometric")
        return self._like(self._recurrence(1, 0, None))

    def log_geometric(self) -> "TruncatedEGF":
        """CYC construction: ln(1/(1 - a)), the formal log of `geometric`."""
        self._require_zero_constant("log_geometric")
        return self._like(self._recurrence(0, 1, self.geometric()._s))

    def compose(self, inner: "TruncatedEGF") -> "TruncatedEGF":
        """Substitute ``inner`` (zero constant term) for t: sum_d S_d inner^d / d!."""
        inner._require_zero_constant("composition")
        n = min(self.order, inner.order)
        basis = self.basis
        x = inner._s[: n + 1]
        powers = [_unit(basis, n)]  # P_0 = 1
        for d in range(1, n + 1):
            powers.append(_convolve(powers[-1], x, n, basis, divisor=d))
        s = self._s
        return self._like(
            sum_of_products(basis, ((1, s[d], powers[d][m]) for d in range(m + 1)))
            for m in range(n + 1)
        )

    # -- extraction --------------------------------------------------------

    def det_moment(self, n: int) -> MomentPolynomial:
        """Recover f_k(n) = n!^2 * [t^n] = n! * s_n."""
        self._check_index(n)
        return factorial(n) * self._s[n]

    # -- presentation ------------------------------------------------------

    def to_pairs(self) -> list[tuple[int, MomentPolynomial]]:
        return list(enumerate(self.coeffs))

    def to_text(self) -> str:
        return "\n".join(f"t^{n}: {c.to_text()}" for n, c in self.to_pairs())

    def to_json_dict(self) -> dict:
        return {
            "convention": "f-convention",
            "order": self.order,
            "coeffs": [[n, c.to_json_dict()] for n, c in self.to_pairs()],
        }


def _unit(basis: Basis, order: int) -> Scaled:
    """Scaled coefficients 0..order of the series 1."""
    return (MomentPolynomial.constant(1, basis),) + (MomentPolynomial.zero(basis),) * order


def _convolve(
    a: Scaled, b: Scaled, n: int, basis: Basis, divisor: int = 1
) -> list[MomentPolynomial]:
    """Scaled coefficients 0..n of the product of two series, each over ``divisor``."""
    return [
        sum_of_products(
            basis,
            ((comb(d, i), a[i], b[d - i]) for i in range(d + 1) if a[i] and b[d - i]),
            divisor,
        )
        for d in range(n + 1)
    ]


# -- constructors ----------------------------------------------------------


def _as_poly(c: Coefflike, basis: Basis) -> MomentPolynomial:
    if isinstance(c, MomentPolynomial):
        return c
    return MomentPolynomial.constant(c, basis)


def polynomial_in_t(
    coeffs: Sequence[Coefflike],
    order: int,
    basis: Basis | None = None,
) -> TruncatedEGF:
    """Series for a polynomial in t, zero-padded up to the truncation order."""
    for c in coeffs:
        if isinstance(c, MomentPolynomial):
            basis = c.basis
            break
    if basis is None:
        raise ValueError("give at least one MomentPolynomial coefficient or a basis")
    polys = [_as_poly(c, basis) for c in coeffs[: order + 1]]
    zero = MomentPolynomial.zero(basis)
    polys.extend([zero] * (order + 1 - len(polys)))
    return TruncatedEGF(tuple(polys))


def t_times(value: Coefflike, order: int, basis: Basis | None = None) -> TruncatedEGF:
    """The series ``value * t``."""
    return polynomial_in_t([0, value], order, basis)
