"""Truncated exponential generating functions with exact polynomial coefficients.

A ``TruncatedEGF`` holds the coefficients of t^0 .. t^order of a formal power
series whose coefficients are `MomentPolynomial`s (constants are polynomials
too).  Everything is formal: no convergence is implied, and all operations are
exact term manipulation over the rationals.

Two coefficient conventions are tagged on a series and must agree before
series are combined:

* PLAIN_EGF    -- coefficient of t^n is a_n with the series sum a_n t^n / 1;
                  used for ordinary species-style bookkeeping where the
                  caller tracks factorials themselves.
* F_CONVENTION -- coefficient of t^n is f_k(n) / n!^2; `det_moment` recovers
                  the determinant moment by multiplying back n!^2.

The classic species constructions are available on zero-constant-term series
``a``: ``a.exp()`` builds SET(a), ``a.geometric()`` builds SEQ(a) = 1/(1-a),
and ``a.log_geometric()`` builds CYC(a) = ln(1/(1-a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from .errors import ConventionMismatchError
from .poly import Basis, MomentPolynomial

DEFAULT_TRUNCATION = 16


class Convention(Enum):
    PLAIN_EGF = "plain-egf"
    F_CONVENTION = "f-convention"


Coefflike = Union[MomentPolynomial, int, Fraction]


@dataclass(frozen=True)
class TruncatedEGF:
    """Truncated formal power series in t; immutable."""

    coeffs: tuple[MomentPolynomial, ...]
    convention: Convention

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the t^0 coefficient")
        basis = self.coeffs[0].basis
        for c in self.coeffs:
            if c.basis is not basis:
                raise ValueError("series coefficients must share a basis")

    # -- state -------------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def basis(self) -> Basis:
        return self.coeffs[0].basis

    def coefficient(self, n: int) -> MomentPolynomial:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedEGF":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedEGF(self.coeffs[: order + 1], self.convention)

    def with_convention(self, convention: Convention) -> "TruncatedEGF":
        """Retag the series; the caller asserts the reinterpretation is sound."""
        return TruncatedEGF(self.coeffs, convention)

    def _zero_poly(self) -> MomentPolynomial:
        return MomentPolynomial.zero(self.basis)

    def _one_poly(self) -> MomentPolynomial:
        return MomentPolynomial.constant(1, self.basis)

    def _check(self, other: "TruncatedEGF") -> None:
        if other.convention is not self.convention:
            raise ConventionMismatchError(
                f"cannot combine {self.convention.value} and {other.convention.value} series"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._check(other)
        n = min(self.order, other.order)
        return TruncatedEGF(
            tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
            self.convention,
        )

    def __sub__(self, other: "TruncatedEGF") -> "TruncatedEGF":
        if not isinstance(other, TruncatedEGF):
            return NotImplemented
        self._check(other)
        n = min(self.order, other.order)
        return TruncatedEGF(
            tuple(a - b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
            self.convention,
        )

    def __mul__(self, other: object) -> "TruncatedEGF":
        if isinstance(other, TruncatedEGF):
            self._check(other)
            n = min(self.order, other.order)
            out = []
            for d in range(n + 1):
                acc = self._zero_poly()
                for i in range(d + 1):
                    a = self.coeffs[i]
                    b = other.coeffs[d - i]
                    if a and b:
                        acc = acc + a * b
                out.append(acc)
            return TruncatedEGF(tuple(out), self.convention)
        if isinstance(other, (int, Fraction, MomentPolynomial)):
            return TruncatedEGF(
                tuple(c * other for c in self.coeffs), self.convention
            )
        return NotImplemented

    __rmul__ = __mul__

    def pow(self, exponent: int) -> "TruncatedEGF":
        """Integer power by repeated squaring; works for any constant term."""
        if exponent < 0:
            raise ValueError("series powers need a nonnegative exponent")
        result = TruncatedEGF(
            (self._one_poly(),) + (self._zero_poly(),) * self.order, self.convention
        )
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- species constructions (zero constant term required) ---------------

    def _require_zero_constant(self, op: str) -> None:
        if not self.coeffs[0].is_zero:
            raise ValueError(f"{op} requires a series with zero constant term")

    def exp(self) -> "TruncatedEGF":
        """SET construction: formal exp via the derivative recurrence."""
        self._require_zero_constant("exp")
        n = self.order
        out = [self._one_poly()]
        for d in range(1, n + 1):
            acc = self._zero_poly()
            for j in range(1, d + 1):
                if self.coeffs[j]:
                    acc = acc + j * self.coeffs[j] * out[d - j]
            out.append(Fraction(1, d) * acc)
        return TruncatedEGF(tuple(out), self.convention)

    def geometric(self) -> "TruncatedEGF":
        """SEQ construction: 1/(1 - a) via the convolution recurrence."""
        self._require_zero_constant("geometric")
        n = self.order
        out = [self._one_poly()]
        for d in range(1, n + 1):
            acc = self._zero_poly()
            for j in range(1, d + 1):
                if self.coeffs[j]:
                    acc = acc + self.coeffs[j] * out[d - j]
            out.append(acc)
        return TruncatedEGF(tuple(out), self.convention)

    def log_geometric(self) -> "TruncatedEGF":
        """CYC construction: ln(1/(1 - a)), the formal log of `geometric`."""
        self._require_zero_constant("log_geometric")
        geo = self.geometric()
        n = self.order
        out = [self._zero_poly()]
        for d in range(1, n + 1):
            acc = self._zero_poly()
            for j in range(1, d + 1):
                if self.coeffs[j]:
                    acc = acc + j * self.coeffs[j] * geo.coeffs[d - j]
            out.append(Fraction(1, d) * acc)
        return TruncatedEGF(tuple(out), self.convention)

    def compose(self, inner: "TruncatedEGF") -> "TruncatedEGF":
        """Substitute ``inner`` (zero constant term) for t, by Horner's rule."""
        self._check(inner)
        inner._require_zero_constant("composition")
        n = min(self.order, inner.order)
        inner = inner.truncate(n)
        result = constant_series(self.coeffs[n], n, self.convention)
        for d in range(n - 1, -1, -1):
            result = result * inner + constant_series(self.coeffs[d], n, self.convention)
        return result

    # -- extraction --------------------------------------------------------

    def det_moment(self, n: int) -> MomentPolynomial:
        """Recover f_k(n) = n!^2 * [t^n]; only meaningful under F_CONVENTION."""
        if self.convention is not Convention.F_CONVENTION:
            raise ConventionMismatchError(
                "det_moment needs the f-convention (coefficients f_k(n)/n!^2)"
            )
        return factorial(n) ** 2 * self.coefficient(n)

    # -- presentation ------------------------------------------------------

    def to_pairs(self) -> list[tuple[int, MomentPolynomial]]:
        return list(enumerate(self.coeffs))

    def to_text(self) -> str:
        return "\n".join(f"t^{n}: {c.to_text()}" for n, c in self.to_pairs())

    def to_json_dict(self) -> dict:
        return {
            "convention": self.convention.value,
            "order": self.order,
            "coeffs": [[n, c.to_json_dict()] for n, c in self.to_pairs()],
        }


# -- constructors ----------------------------------------------------------


def _as_poly(c: Coefflike, basis: Basis) -> MomentPolynomial:
    if isinstance(c, MomentPolynomial):
        return c
    return MomentPolynomial.constant(c, basis)


def polynomial_in_t(
    coeffs: Sequence[Coefflike],
    order: int,
    convention: Convention,
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
    return TruncatedEGF(tuple(polys), convention)


def constant_series(
    value: Coefflike,
    order: int,
    convention: Convention,
    basis: Basis | None = None,
) -> TruncatedEGF:
    return polynomial_in_t([value], order, convention, basis)


def t_times(
    value: Coefflike,
    order: int,
    convention: Convention,
    basis: Basis | None = None,
) -> TruncatedEGF:
    """The series ``value * t``."""
    return polynomial_in_t([0, value], order, convention, basis)
