"""Brute-force oracle: determinant moments by enumerating permutation tables.

Expanding det(A)^k = prod of k determinants and taking expectations termwise
turns E[det(A)^k] into a signed sum over k-row tables of permutations of
{1..n}: the sign is the product of the row signs, and the weight of a table
is the product over columns of m_{c} for every group of c equal values in
that column (raw basis).

The marked variant subtracts the mean first: each row may additionally
replace at most one of its entries by a mark contributing a factor m_1, and
the remaining values group into central moments mu_c.  A column with an
unmarked value that appears exactly once contributes mu_1 = 0, killing the
table, which is what makes the marked sum sparse.

Three reductions shrink the enumeration; every one gives the same sum.

* ``FULL`` enumerates every table: ``(n!)^k`` plain, ``((n+1) n!)^k`` marked.
* ``FIRST_ROW_IDENTITY`` (even k only).  Relabelling the columns by the
  inverse of the first row keeps every weight and multiplies every row sign
  by the same sign, which cancels when k is even; so the first row is pinned
  to the identity (plain) or to the n+1 marked identities (marked) and the
  result multiplied by n!.
* ``CONJUGACY`` (any k).  Conjugating every row by the same tau,
  ``sigma -> tau sigma tau^-1``, keeps each row's sign.  It moves column i
  to column tau(i) and relabels the values by tau, so every column keeps its
  pattern of equal values and the weight is unchanged; a mark moves with its
  column, ``(sigma, p) -> (tau sigma tau^-1, tau(p))``.  The sets of options
  for the first row (all rows, or the pinned identities) are invariant under
  this action, so the sum over the other rows is constant on the orbits of
  one row, the partition axis, which may run over one representative per
  orbit weighted by the orbit size (the orbit-counting argument behind
  Burnside's lemma).  The axis is row 2 when k is even and the first row is
  pinned as above, and row 1 when k is odd.  A plain orbit is a cycle type
  lambda of n, of size n!/z_lambda.  A marked orbit is ``(lambda, None)`` of
  size n!/z_lambda, or ``(lambda, l)`` for a distinct part l with the mark on
  a point of an l-cycle, of size n!/z_lambda * l * m_l(lambda).

With p(n) partitions of n and q(n) = sum over lambda of (1 + number of
distinct parts) = p(0) + ... + p(n) marked orbits, `table_count` is, without
enumerating anything:

============  ===========================  ================================
reduction     plain                        marked
============  ===========================  ================================
full          (n!)^k                       ((n+1) n!)^k
first-row     (n!)^(k-1)                   (n+1) ((n+1) n!)^(k-1)
conjugacy     p(n) (n!)^(k-2), even k      (n+1) q(n) ((n+1) n!)^(k-2)
              p(n) (n!)^(k-1), odd k       q(n) ((n+1) n!)^(k-1)
============  ===========================  ================================

``oracle_moment`` picks ``CONJUGACY`` unless told otherwise.
"""

from __future__ import annotations

import itertools
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from math import factorial, prod
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .poly import DEFAULT_MAX_ORDER, Basis, MomentPolynomial

DEFAULT_BUDGET = 10**8
_PARALLEL_THRESHOLD = 200_000
_PROGRESS_STEP = 1 << 16

# The value a marked entry takes in a row; it sorts before every real value.
_MARK = -1


class TableMode(Enum):
    PLAIN = "plain"
    MARKED = "marked"


class Reduction(Enum):
    FULL = "full"
    FIRST_ROW_IDENTITY = "first-row"
    CONJUGACY = "conjugacy"


ProgressFn = Callable[[int, int], None]

# One choice for a table row: its values (a mark stored as _MARK) and the
# row sign times the number of rows it stands for.
Option = tuple[tuple[int, ...], int]


def permutation_sign(perm: Sequence[int]) -> int:
    """Sign of a permutation given as a tuple of 0-based values."""
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _check_perm(row: Sequence[int], n: int) -> tuple[int, ...]:
    row = tuple(row)
    if sorted(row) != list(range(n)):
        raise ValueError(f"row {row} is not a permutation of 0..{n - 1}")
    return row


def _weight_key(
    rows: Sequence[Sequence[int]], R: int, marked: bool
) -> Optional[tuple[int, ...]]:
    """Exponent vector of a table's weight, or None when mu_1 = 0 kills it.

    ``rows`` hold the table's values, with ``_MARK`` for a marked entry.
    Every group of c equal values in a column adds one to slot c, or to slot
    0 (m_1) when c = 1; each mark adds one to slot 0.  With ``marked`` set the
    values are central: a lone unmarked value is mu_1 = 0 and kills the table.
    """
    k = len(rows)
    exp = [0] * (R + 1)
    for column in zip(*rows):
        vals = sorted(column)
        j = 0
        while j < k:
            v = vals[j]
            c = 1
            while j + c < k and vals[j + c] == v:
                c += 1
            if v == _MARK:
                exp[0] += c
            elif c > 1:
                exp[c] += 1
            elif marked:
                return None
            else:
                exp[0] += 1
            j += c
    return tuple(exp)


@dataclass(frozen=True)
class PermutationTable:
    """k rows, each a permutation of 0..n-1 (columns indexed by position)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a table needs at least one row")
        n = len(self.rows[0])
        object.__setattr__(
            self, "rows", tuple(_check_perm(r, n) for r in self.rows)
        )

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def sign(self) -> int:
        s = 1
        for row in self.rows:
            s *= permutation_sign(row)
        return s

    def weight(self, max_order: Optional[int] = None) -> MomentPolynomial:
        """Product over columns of m_c per group of c equal values; raw basis."""
        R = max_order or max(DEFAULT_MAX_ORDER, self.k)
        return MomentPolynomial(Basis.RAW, {_weight_key(self.rows, R, False): 1}, R)


def _mask(values: tuple[int, ...], mark: Optional[int]) -> tuple[int, ...]:
    if mark is None:
        return values
    return values[:mark] + (_MARK,) + values[mark + 1:]


@dataclass(frozen=True)
class MarkedRow:
    """A permutation with at most one position replaced by a mean mark."""

    values: tuple[int, ...]
    mark: Optional[int] = None  # masked position, or None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if self.mark is not None and not 0 <= self.mark < len(self.values):
            raise ValueError("mark position out of range")


@dataclass(frozen=True)
class MarkedTable:
    """k marked rows over the same column set."""

    rows: tuple[MarkedRow, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a table needs at least one row")
        n = len(self.rows[0].values)
        for r in self.rows:
            _check_perm(r.values, n)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0].values)

    def sign(self) -> int:
        s = 1
        for row in self.rows:
            s *= permutation_sign(row.values)
        return s

    def weight(self, max_order: Optional[int] = None) -> MomentPolynomial:
        """Central-basis weight: m_1 per mark, mu_c per group of c unmarked values.

        Zero whenever some unmarked value is alone in its column (mu_1 = 0).
        """
        R = max_order or max(DEFAULT_MAX_ORDER, self.k)
        key = _weight_key([_mask(r.values, r.mark) for r in self.rows], R, True)
        if key is None:
            return MomentPolynomial.zero(Basis.CENTRAL, R)
        return MomentPolynomial(Basis.CENTRAL, {key: 1}, R)


# -- row options -----------------------------------------------------------


def _row_options(n: int, mode: TableMode) -> list[Option]:
    """Every row: the n! permutations, in marked mode each also marked at
    each position."""
    out = []
    for p in itertools.permutations(range(n)):
        s = permutation_sign(p)
        out.append((p, s))
        if mode is TableMode.MARKED:
            out.extend((_mask(p, pos), s) for pos in range(n))
    return out


def _pinned_options(n: int, mode: TableMode) -> list[Option]:
    """The first row pinned to the identity, marked at no or one position."""
    ident = tuple(range(n))
    if mode is TableMode.PLAIN:
        return [(ident, 1)]
    return [(ident, 1)] + [(_mask(ident, pos), 1) for pos in range(n)]


def _partitions(n: int, largest: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Partitions of n into parts of at most ``largest``, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _orbit_options(n: int, mode: TableMode) -> list[Option]:
    """One row per conjugacy orbit, its sign times the orbit size.

    The representative of cycle type lambda takes its cycles on consecutive
    points; a marked representative puts the mark on the first point of the
    first cycle of the marked length.
    """
    out = []
    for parts in _partitions(n):
        perm: list[int] = []
        first_point: dict[int, int] = {}
        for length in parts:
            start = len(perm)
            first_point.setdefault(length, start)
            perm.extend(range(start + 1, start + length))
            perm.append(start)
        rep = tuple(perm)
        mult = Counter(parts)
        z = prod(length**m * factorial(m) for length, m in mult.items())
        size = factorial(n) // z
        signed = permutation_sign(rep) * size
        out.append((rep, signed))
        if mode is TableMode.MARKED:
            out.extend(
                (_mask(rep, point), signed * length * mult[length])
                for length, point in first_point.items()
            )
    return out


def _partition_counts(n: int) -> list[int]:
    """p(0), ..., p(n) by Euler's pentagonal number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        j = 1
        while j * (3 * j - 1) // 2 <= m:
            sign = 1 if j % 2 else -1
            total += sign * p[m - j * (3 * j - 1) // 2]
            if j * (3 * j + 1) // 2 <= m:
                total += sign * p[m - j * (3 * j + 1) // 2]
            j += 1
        p[m] = total
    return p


def table_count(k: int, n: int, mode: TableMode, reduction: Reduction) -> int:
    """Number of weight evaluations the enumeration performs.

    A closed form (see the module docstring); it enumerates nothing.
    """
    per_row = factorial(n) if mode is TableMode.PLAIN else factorial(n) * (n + 1)
    pinned = 1 if mode is TableMode.PLAIN else n + 1
    if reduction is Reduction.FULL:
        return per_row**k
    if reduction is Reduction.FIRST_ROW_IDENTITY:
        return pinned * per_row ** (k - 1)
    p = _partition_counts(n)
    orbits = p[n] if mode is TableMode.PLAIN else sum(p)
    if k % 2:
        return orbits * per_row ** (k - 1)
    return pinned * orbits * per_row ** (k - 2)


def _resolve_reduction(k: int, reduction: Optional[Reduction]) -> Reduction:
    if reduction is None:
        return Reduction.CONJUGACY
    if reduction is Reduction.FIRST_ROW_IDENTITY and k % 2:
        raise ValueError(
            "the first-row-identity reduction is only sound for even k "
            "(row signs must cancel)"
        )
    return reduction


def _pins_first_row(k: int, reduction: Reduction) -> bool:
    return reduction is not Reduction.FULL and k % 2 == 0


def _axes(
    k: int, n: int, mode: TableMode, reduction: Reduction
) -> tuple[list[list[Option]], int]:
    """Option lists for the k rows, and the index of the partition axis.

    The partition axis is row 2 when the first row is pinned, else row 1.
    The n!-long list of every row is built only when some row uses it.
    """
    axis = 1 if _pins_first_row(k, reduction) else 0
    conjugacy = reduction is Reduction.CONJUGACY
    every_row = _row_options(n, mode) if not conjugacy or k > axis + 1 else []
    axes = [every_row] * k
    if axis == 1:
        axes[0] = _pinned_options(n, mode)
    if conjugacy:
        axes[axis] = _orbit_options(n, mode)
    return axes, axis


def _accumulate_range(
    axes: list[list[Option]],
    axis: int,
    lo: int,
    hi: int,
    R: int,
    marked: bool,
    progress: Optional[ProgressFn] = None,
    total: int = 0,
) -> tuple[dict[tuple[int, ...], int], int]:
    """Signed weight counts over a slice ``lo:hi`` of the partition axis.

    Returns the counts and the number of tables visited.
    """
    axes = list(axes)
    axes[axis] = axes[axis][lo:hi]
    acc: dict[tuple[int, ...], int] = {}
    done = 0
    for combo in itertools.product(*axes):
        rows, signs = zip(*combo)
        key = _weight_key(rows, R, marked)
        if key is not None:
            acc[key] = acc.get(key, 0) + prod(signs)
        done += 1
        if progress and done % _PROGRESS_STEP == 0:
            progress(done, total)
    return acc, done


def _chunk_worker(args: tuple) -> tuple[dict[tuple[int, ...], int], int]:
    k, n, R, mode_value, reduction_value, lo, hi = args
    mode = TableMode(mode_value)
    axes, axis = _axes(k, n, mode, Reduction(reduction_value))
    return _accumulate_range(axes, axis, lo, hi, R, mode is TableMode.MARKED)


def oracle_moment(
    k: int,
    n: int,
    mode: TableMode = TableMode.PLAIN,
    reduction: Optional[Reduction] = None,
    budget: Optional[int] = None,
    workers: int = 1,
    max_order: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
) -> MomentPolynomial:
    """E[det(A)^k] by table enumeration; raw basis (plain) or central (marked).

    ``reduction=None`` picks the conjugacy reduction, which is sound for
    every k.  Raises `BudgetExceededError` before doing any work if the
    enumeration would exceed ``budget`` weight evaluations.  ``progress``
    receives (tables visited, `table_count`).  Results are independent of
    ``workers``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    reduction = _resolve_reduction(k, reduction)
    R = max_order or max(DEFAULT_MAX_ORDER, k)
    if R < k:
        raise ValueError(f"max_order {R} cannot hold order-{k} column weights")
    budget = DEFAULT_BUDGET if budget is None else budget
    total = table_count(k, n, mode, reduction)
    if total > budget:
        raise BudgetExceededError(total, budget, f"table enumeration for k={k}, n={n}")

    axes, axis = _axes(k, n, mode, reduction)
    axis_len = len(axes[axis])
    marked = mode is TableMode.MARKED

    if workers > 1 and total >= _PARALLEL_THRESHOLD and axis_len > 1:
        workers = min(workers, axis_len)
        bounds = [(i * axis_len) // workers for i in range(workers + 1)]
        jobs = [
            (k, n, R, mode.value, reduction.value, lo, hi)
            for lo, hi in zip(bounds, bounds[1:])
            if lo < hi
        ]
        acc: dict[tuple[int, ...], int] = {}
        done = 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, visited in pool.map(_chunk_worker, jobs):
                for key, v in part.items():
                    acc[key] = acc.get(key, 0) + v
                done += visited
                if progress:
                    progress(done, total)
    else:
        acc, done = _accumulate_range(
            axes, axis, 0, axis_len, R, marked, progress, total
        )
        if progress:
            progress(done, total)

    scale = factorial(n) if _pins_first_row(k, reduction) else 1
    basis = Basis.CENTRAL if marked else Basis.RAW
    return MomentPolynomial(
        basis, {exp: scale * c for exp, c in acc.items() if c}, R
    )
