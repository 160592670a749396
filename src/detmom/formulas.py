"""Closed forms and generating functions for determinant moments.

``det_moment_k(n)`` functions return E[det(A)^k] for an n x n matrix with
i.i.d. entries as an exact `MomentPolynomial`; the ``*_egf`` variants return
the whole generating function sum_n f_k(n) t^n / n!^2 truncated at a given
order.  Conventions:

* k = 2: raw basis, any mean.
* k = 4: central basis (mean m_1 and mu_2, mu_3, mu_4), any mean.
* k = 6: raw basis, valid only when the entries are centered (m_1 = 0);
  callers must substitute m_1 = 0 themselves when comparing against
  general-mean quantities.

The closed forms are the coefficients of t^n in the factored generating
functions, times n!^2, with the n!^2 folded into every coefficient from the
start so all arithmetic stays in Python ints.  Each is summed by Horner's
rule in its non-monomial factor: the k = 4 forms in the excess
mu_4 - 3 mu_2^2, the k = 6 form in q_4 and then in q_6 after a
convolution with (1 + m_3^2 t)^10: O(n^2) products by polynomials of at
most four terms.

Each closed form is written once, as a private function of n and its moment
symbols that uses only ``+``, ``*``, ``**`` and int scalars.  The coefficient
of t^n is an identity in any commutative ring, so the same function gives
the symbolic polynomial when it is called with `MomentPolynomial` symbols
(the cached public builders) and an exact number when it is called with a
law's `Fraction` moments (`detmom.sampling.exact_moment_target`).  Only the
symbolic builders refuse, with `OrderCapacityError` before any product, a
moment whose weight k*n reaches the packing limit of `detmom.poly`.  The
``*_egf`` series are built independently, from `TruncatedEGF` products,
``exp`` and composition, and `verify` checks the closed forms against them.

``gaussian_det_moment(k, n)`` evaluates the standard-normal case for any even
k directly as a product of factorial ratios.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import _check_kn
from .poly import (
    Basis,
    MomentPolynomial,
    _check_limit,
    central_mean,
    central_symbol,
    raw_symbol,
)
from .series import TruncatedEGF, polynomial_in_t, t_times

# -- shared helpers --------------------------------------------------------


def _check_weight(k: int, n: int) -> None:
    """Refuse E[det^k] at size n before any work if its weight k*n cannot pack."""
    _check_kn(k, n)
    _check_limit(k * n)


def _powers(p, top: int) -> list:
    """[1, p, p^2, ..., p^top]."""
    out = [p**0]
    for _ in range(top):
        out.append(out[-1] * p)
    return out


def _horner(x, parts: list):
    """sum_j parts[j] * x^j, one product by ``x`` per step."""
    total = parts[-1]
    for part in reversed(parts[:-1]):
        total = total * x + part
    return total


# -- k = 2 -----------------------------------------------------------------


def _second_moment(n: int, m1, m2):
    if n == 0:
        return m2**0
    return factorial(n) * (m2 + (n - 1) * m1**2) * (m2 - m1**2) ** (n - 1)


@lru_cache(maxsize=None)
def second_moment(n: int) -> MomentPolynomial:
    """E[det(A)^2] = n! (m_2 + (n-1) m_1^2)(m_2 - m_1^2)^(n-1), raw basis."""
    _check_weight(2, n)
    return _second_moment(n, raw_symbol(1), raw_symbol(2))


@lru_cache(maxsize=None)
def second_moment_egf(order: int) -> TruncatedEGF:
    """F_2(t) = (1 + m_1^2 t) exp((m_2 - m_1^2) t)."""
    m1 = raw_symbol(1)
    m2 = raw_symbol(2)
    growth = t_times(m2 - m1**2, order).exp()
    return polynomial_in_t([1, m1**2], order) * growth


# -- Gaussian entries, any even k ------------------------------------------


def gaussian_det_moment(k: int, n: int) -> Fraction:
    """E[det(A)^k] for standard normal entries: prod_j (n+2j)!/(2j)!, j < k/2."""
    if k < 2 or k % 2:
        raise ValueError("the Gaussian product form needs an even k >= 2")
    _check_kn(k, n)
    out = Fraction(1)
    for j in range(k // 2):
        out *= Fraction(factorial(n + 2 * j), factorial(2 * j))
    return out


def gaussian_moment_table(up_to: int) -> dict[int, Fraction]:
    """Raw moments of N(0,1): (r-1)!! for even r, zero for odd r."""
    table: dict[int, Fraction] = {}
    for r in range(1, up_to + 1):
        if r % 2:
            table[r] = Fraction(0)
        else:
            v = 1
            for odd in range(1, r, 2):
                v *= odd
            table[r] = Fraction(v)
    return table


@lru_cache(maxsize=None)
def gaussian_sixth_egf(order: int) -> TruncatedEGF:
    """N_6(t) = sum_n (n+1)(n+2)(n+4)!/48 t^n, the Gaussian sixth-moment series.

    Its coefficients are gaussian_det_moment(6, n)/n!^2, i.e. F_6 with all
    moment dependence evaluated at standard normal entries.
    """
    return polynomial_in_t([_gaussian_sixth(n) for n in range(order + 1)], order, Basis.RAW)


def _gaussian_sixth(n: int) -> int:
    """(n+1)(n+2)(n+4)!/48, the t^n coefficient of N_6; an integer."""
    return (n + 1) * (n + 2) * factorial(n + 4) // 48


# -- k = 4 -----------------------------------------------------------------


def _d_factor(w: int, c: int) -> int:
    # Table-count factor by number of doubly-marked columns w.
    if w == 0:
        return 2 + c
    if w == 1:
        return c * (2 + c)
    return c**3


def _fourth_moment(n: int, m1, mu2, mu3, mu4):
    mu2_pow = _powers(mu2, 2 * n)
    nf = factorial(n)
    parts = []
    for e in range(n + 1):
        part = 0
        for w in range(3):
            for s in range(min(4 - 2 * w, n - e) + 1):
                c = n - e - s
                d = _d_factor(w, c)
                if d == 0:
                    continue
                # 2c - w < 0 only happens alongside d = 0 (c = 0, w > 0), and
                # (1 + c) d is even whenever (2 - w)! w! = 2.
                table = comb(4 - 2 * w, s) * (1 + c) * d
                coef = nf * (nf // factorial(e)) * (
                    table // (factorial(2 - w) * factorial(w))
                )
                part = part + coef * m1 ** (s + 2 * w) * mu3**s * mu2_pow[2 * c - w]
        parts.append(part)
    return _horner(mu4 - 3 * mu2**2, parts)


@lru_cache(maxsize=None)
def fourth_moment(n: int) -> MomentPolynomial:
    """E[det(A)^4] in the central basis, any mean.

    The table sum runs over w doubly-marked columns (w <= 2), s columns
    pairing m_1 with mu_3 and c plain column pairs; what is left of the n
    columns, e = n - c - s, carries the excess mu_4 - 3 mu_2^2.  Grouped by e
    it is sum_e P_e (mu_4 - 3 mu_2^2)^e with P_e a sum of at most nine
    monomials, evaluated by Horner's rule in the excess: n products by a
    two-term polynomial, all with integer coefficients.
    """
    _check_weight(4, n)
    return _fourth_moment(
        n, central_mean(), central_symbol(2), central_symbol(3), central_symbol(4)
    )


@lru_cache(maxsize=None)
def fourth_moment_egf(order: int) -> TruncatedEGF:
    """F_4(t) in the central basis, any mean."""
    m1 = central_mean()
    mu2 = central_symbol(2)
    mu3 = central_symbol(3)
    mu4 = central_symbol(4)

    growth = t_times(mu4 - 3 * mu2**2, order).exp()
    seq = t_times(mu2**2, order).geometric()  # 1/(1 - mu2^2 t)
    marked_pair = polynomial_in_t([1, m1 * mu3], order)  # 1 + m1 mu3 t

    bracket = marked_pair.pow(4)
    bracket = bracket + 6 * m1**2 * mu2 * t_times(
        MomentPolynomial.constant(1, Basis.CENTRAL), order
    ) * marked_pair.pow(2) * seq
    bracket = bracket + m1**4 * polynomial_in_t(
        [0, 1, 7 * mu2**2, 4 * mu2**4], order, basis=Basis.CENTRAL
    ) * seq.pow(2)
    return growth * seq.pow(3) * bracket


def _fourth_moment_zero_mean(n: int, m2, m4):
    m2_sq = _powers(m2**2, n)
    nf = factorial(n)
    parts = [
        nf * (nf // factorial(j)) * comb(n - j + 2, 2) * m2_sq[n - j]
        for j in range(n + 1)
    ]
    return _horner(m4 - 3 * m2**2, parts)


@lru_cache(maxsize=None)
def fourth_moment_zero_mean(n: int) -> MomentPolynomial:
    """E[det(A)^4] for centered entries, raw basis in m_2 and m_4.

    n!^2 sum_j C(n-j+2, 2) / j! * (m_4 - 3 m_2^2)^j * m_2^(2(n-j)), by
    Horner's rule in the excess m_4 - 3 m_2^2 with integer coefficients.
    """
    _check_weight(4, n)
    return _fourth_moment_zero_mean(n, raw_symbol(2), raw_symbol(4))


class MarkClass(Enum):
    """Mark-count classes of the k = 4 table decomposition at unit variance."""

    ZERO = "mark0"
    TWO = "mark2"
    FOUR_ONE_COL = "mark4-single"
    FOUR_TWO_COLS = "mark4-split"
    FOUR = "mark4"


@lru_cache(maxsize=None)
def mark_class_egf(which: MarkClass, order: int) -> TruncatedEGF:
    """Generating function of one mark class of F_4 with mu_2 set to 1.

    The classes split tables by how many entries are replaced by their mean:
    none, two (in one column), or four, the last subdivided by whether the
    four marks occupy one column pair or two separate columns.
    """
    m1 = central_mean()
    mu4 = central_symbol(4)
    one = MomentPolynomial.constant(1, Basis.CENTRAL)

    growth = t_times(mu4 - 3 * one, order).exp()
    seq = t_times(one, order).geometric()  # 1/(1 - t)

    if which is MarkClass.ZERO:
        return growth * seq.pow(3)
    if which is MarkClass.TWO:
        return 6 * m1**2 * t_times(one, order) * growth * seq.pow(4)
    if which is MarkClass.FOUR_ONE_COL:
        return m1**4 * polynomial_in_t(
            [0, 1, 2], order, basis=Basis.CENTRAL
        ) * growth * seq.pow(4)
    if which is MarkClass.FOUR_TWO_COLS:
        return 6 * m1**4 * polynomial_in_t(
            [0, 0, 1, 1], order, basis=Basis.CENTRAL
        ) * growth * seq.pow(5)
    # FOUR = FOUR_ONE_COL + FOUR_TWO_COLS
    return mark_class_egf(MarkClass.FOUR_ONE_COL, order) + mark_class_egf(
        MarkClass.FOUR_TWO_COLS, order
    )


# -- k = 6, centered entries -----------------------------------------------


def _q6(m2, m3, m4, m6):
    return m6 - 10 * m3**2 - 15 * m4 * m2 + 30 * m2**3


def _q4(m2, m4):
    return m4 * m2 - 3 * m2**3


def _sixth_moment_zero_mean(n: int, m2, m3, m4, m6):
    q6, q4 = _q6(m2, m3, m4, m6), _q4(m2, m4)
    m2_cube = _powers(m2**3, n)
    m3_sq = _powers(m3**2, 10)

    H = []
    for r in range(n + 1):
        parts = [  # i = r - b
            _gaussian_sixth(r - b) * comb(14 + b + 3 * (r - b), b) * m2_cube[r - b]
            for b in range(r + 1)
        ]
        H.append(_horner(q4, parts))
    K = [
        sum(comb(10, c) * m3_sq[c] * H[s - c] for c in range(min(10, s) + 1))
        for s in range(n + 1)
    ]
    nf = factorial(n)
    return _horner(q6, [nf * (nf // factorial(a)) * K[n - a] for a in range(n + 1)])


@lru_cache(maxsize=None)
def sixth_moment_zero_mean(n: int) -> MomentPolynomial:
    """E[det(A)^6] for centered entries, raw basis in m_2, m_3, m_4, m_6.

    The coefficient of t^n in the factored F_6 (see
    `sixth_moment_zero_mean_egf`), times n!^2, as a four-index convolution
    with a the power of q_6, c that of m_3^2, b that of q_4 and i that of
    m_2^3:

        n!^2 sum_{a+b+c+i=n} q_6^a / a! * C(10, c) m_3^(2c)
                             * g(i) C(14+b+3i, b) q_4^b m_2^(3i),

    g(i) = (1+i)(2+i)(4+i)!/48 (`_gaussian_sixth`).  It is summed in three
    one-index steps, H_r = sum_{i+b=r} (...), K_s = sum_c C(10, c) m_3^(2c)
    H_(s-c) and sum_a n! (n!/a!) q_6^a K_(n-a), with Horner's rule in q_4
    and q_6: O(n^2) polynomial products, each by a polynomial of at most
    four terms, and integer coefficients throughout.
    """
    _check_weight(6, n)
    return _sixth_moment_zero_mean(n, *(raw_symbol(r) for r in (2, 3, 4, 6)))


@lru_cache(maxsize=None)
def sixth_moment_zero_mean_egf(order: int) -> TruncatedEGF:
    """F_6(t) for centered entries, assembled from its factored form.

    The series is (1 + m_3^2 t)^10 * exp(q_6 t) / (1 - q_4 t)^15 composed
    with the Gaussian sixth-moment series at m_2^3 t / (1 - q_4 t)^3, where
    q_6 and q_4 are the degree-6 combinations appearing in the exponent and
    the pole.
    """
    m2, m3, m4, m6 = (raw_symbol(r) for r in (2, 3, 4, 6))
    q6, q4 = _q6(m2, m3, m4, m6), _q4(m2, m4)

    skew = polynomial_in_t([1, m3**2], order).pow(10)
    growth = t_times(q6, order).exp()
    seq = t_times(q4, order).geometric()  # 1/(1 - q4 t)
    inner = t_times(m2**3, order) * seq.pow(3)
    gaussian_part = gaussian_sixth_egf(order).compose(inner)
    return skew * growth * seq.pow(15) * gaussian_part
