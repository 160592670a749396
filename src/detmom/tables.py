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

Two symmetries shrink the enumeration; the sum is the same.

* The first row is pinned (even k).  Relabelling the columns by the
  inverse of the first row keeps every weight and multiplies every row sign
  by the same sign, which cancels when k is even; so the first row is pinned
  to the identity (plain) or to the n+1 marked identities (marked) and the
  result multiplied by n!.
* One row runs over conjugacy orbits (any k).  Conjugating every row by the
  same tau, ``sigma -> tau sigma tau^-1``, keeps each row's sign.  It moves
  column i to column tau(i) and relabels the values by tau, so every column
  keeps its pattern of equal values and the weight is unchanged; a mark
  moves with its column, ``(sigma, p) -> (tau sigma tau^-1, tau(p))``.  The
  sets of options for the first row (all rows, or the pinned identities) are
  invariant under this action, so the sum over the other rows is constant on
  the orbits of one row, the partition axis, which runs over one
  representative per orbit weighted by the orbit size (the orbit-counting
  argument behind Burnside's lemma).  The axis is row 2 when k is even and
  the first row is pinned as above, and row 1 when k is odd.  A plain orbit
  is a cycle type lambda of n, of size n!/z_lambda.  A marked orbit is
  ``(lambda, None)`` of size n!/z_lambda, or ``(lambda, l)`` for a distinct
  part l with the mark on a point of an l-cycle, of size
  n!/z_lambda * l * m_l(lambda).

With p(n) partitions of n and q(n) = sum over lambda of (1 + number of
distinct parts) = p(0) + ... + p(n) marked orbits, `table_count` is, without
enumerating anything,

======  ======================  ================================
k       plain                   marked
======  ======================  ================================
even    p(n) (n!)^(k-2)         (n+1) q(n) ((n+1) n!)^(k-2)
odd     p(n) (n!)^(k-1)         q(n) ((n+1) n!)^(k-1)
======  ======================  ================================

out of (n!)^k plain and ((n+1) n!)^k marked tables in all.

A row's options are the permutations of `itertools.permutations`, each
with its `permutation_sign`, and in marked mode each also marked at one
position by `_mask`; the pinned first row is the identity, marked the same
way.  `_axes` turns each row's options into columns for the kernel.

One block-vectorised kernel enumerates the tables, serially or in a pool.  A
table is a flat mixed-radix index over the options of the k rows, and the
indices run in blocks of `BLOCK_SIZE`; `pool.map_ranges` splits their range
and sends the plan once.  Column by column, a block gathers the k values of
every table, sorts them across the rows with a sorting network, and encodes
each sorted column in k bits: which neighbours are equal, and whether the
first entry is a mark.  A lookup built by `_weight_key` on one single-column
table per code maps the code to the column's exponent increment, or to a
kill (mu_1 = 0); killed tables leave the block at once. Exponent slots 0..k
are packed into one int64 key, slot c in just enough bits for the k*n // c
groups it can count.  The row signs are summed as integers per distinct
(key, orbit option) (`_add_grouped`), and each sum is multiplied by its
orbit option's Python-int weight once at the end: orbit sizes outgrow
int64.  The lookup has 2^k entries, so k is at most 16, and the index and
the packed key with its orbit option must fit in 63 bits.

The decoder (`_digits`) and the grouped sum also serve `detmom.sampling`:
the exhaustive average decodes its rows with the one and sums set weights
per distinct determinant with the other, and the Monte-Carlo determinant
table decodes its matrices.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from math import factorial, prod
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import _check_budget, _check_kn
from .pool import map_ranges
from .poly import Basis, MomentPolynomial

DEFAULT_BUDGET = 10**8
# Tables from which a pool of 2 workers beats the serial kernel.  Measured on
# 2 vCPUs, serial against pooled `oracle_moment` through `pool.map_ranges`,
# each in a fresh interpreter, median of 11 alternating pairs: plain tables
# (~130-170 ns each) 100,800 17 / 32 ms, 1.66M 277 / 158 ms, 5.7M
# 753 / 412 ms; marked ones (~45 ns each at k = 4) 864,000 39 / 44 ms,
# 2.3M (k = 5) 176 / 117 ms.  With about 20-35 ms to start the pool, plain
# tables break even near 0.3-0.5M and marked ones near 1M.  A pooled run also
# imports the pool (`concurrent.futures`, with `multiprocessing`, 17-22 ms).
# Median of 9 rounds on 2 vCPUs, serial / pooled: 864,000 marked tables
# (k = 4, n = 4) 50 / 83 ms with the pool imported beforehand and 50 / 97 ms
# with the import in the pooled run, the pool losing every round either way;
# 2.3M marked tables 177 / 158 ms with the import, the pool winning 6 of 9.
# For k <= 16 no other table count lies between 800,000 and 1M.
_PARALLEL_THRESHOLD = 1_000_000
# Tables per block of the vectorised kernel.  At 2^15 each int64 temporary
# (256 KB) is a fresh mmap whose page faults cost more than the arithmetic.
BLOCK_SIZE = 1 << 14
# The column lookup has 2**k entries.
_MAX_K = 16

# The value a marked entry takes in a row; it sorts before every real value.
_MARK = -1


class TableMode(Enum):
    PLAIN = "plain"
    MARKED = "marked"


ProgressFn = Callable[[int, int], None]

# One choice for a table row: its values (a mark stored as _MARK) and the
# row sign times the number of rows it stands for.
Option = tuple[tuple[int, ...], int]
# The options of a row as columns, an (n, options) array, and their weights.
RowOptions = tuple[np.ndarray, tuple[int, ...]]


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
    rows: Sequence[Sequence[int]], marked: bool
) -> Optional[tuple[int, ...]]:
    """Exponent vector of a table's weight, or None when mu_1 = 0 kills it.

    ``rows`` hold the table's values, with ``_MARK`` for a marked entry.
    Every group of c equal values in a column adds one to slot c, or to slot
    0 (m_1) when c = 1; each mark adds one to slot 0.  With ``marked`` set the
    values are central: a lone unmarked value is mu_1 = 0 and kills the table.
    """
    k = len(rows)
    exp = [0] * (k + 1)
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


class _Table:
    """The checks, ``k``, ``n`` and sign shared by the reference tables.

    A subclass holds ``rows`` and reads each row's permutation with `_perms`.
    """

    def _perms(self) -> Sequence[tuple[int, ...]]:
        return self.rows

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("a table needs at least one row")
        n = self.n
        for perm in self._perms():
            _check_perm(perm, n)

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self._perms()[0])

    def sign(self) -> int:
        s = 1
        for perm in self._perms():
            s *= permutation_sign(perm)
        return s


@dataclass(frozen=True)
class PermutationTable(_Table):
    """k rows, each a permutation of 0..n-1 (columns indexed by position)."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        super().__post_init__()

    def weight(self) -> MomentPolynomial:
        """Product over columns of m_c per group of c equal values; raw basis."""
        return MomentPolynomial(Basis.RAW, {_weight_key(self.rows, False): 1})


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
class MarkedTable(_Table):
    """k marked rows over the same column set."""

    rows: tuple[MarkedRow, ...]

    def _perms(self) -> list[tuple[int, ...]]:
        return [r.values for r in self.rows]

    def weight(self) -> MomentPolynomial:
        """Central-basis weight: m_1 per mark, mu_c per group of c unmarked values.

        Zero whenever some unmarked value is alone in its column (mu_1 = 0).
        """
        key = _weight_key([_mask(r.values, r.mark) for r in self.rows], True)
        if key is None:
            return MomentPolynomial.zero(Basis.CENTRAL)
        return MomentPolynomial(Basis.CENTRAL, {key: 1})


# -- row options -----------------------------------------------------------


def _value_dtype(n: int) -> type:
    return np.int8 if n < 128 else np.int16


def _marked(options: list[Option], mode: TableMode) -> list[Option]:
    """In marked mode, follow every option by its n copies marked at one position."""
    if mode is TableMode.PLAIN:
        return options
    return [(_mask(v, mark), s) for v, s in options for mark in (None, *range(len(v)))]


def _row_options(n: int, mode: TableMode) -> list[Option]:
    """Every row: the n! permutations, in marked mode each also marked at
    each position."""
    return _marked([(p, permutation_sign(p)) for p in permutations(range(n))], mode)


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


def _orbit_count(n: int, mode: TableMode) -> int:
    """p(n) plain orbits, q(n) = p(0) + ... + p(n) marked ones."""
    p = _partition_counts(n)
    return p[n] if mode is TableMode.PLAIN else sum(p)


def table_count(k: int, n: int, mode: TableMode) -> int:
    """Number of weight evaluations the enumeration performs.

    A closed form (see the module docstring); it enumerates nothing.
    """
    per_row = factorial(n) if mode is TableMode.PLAIN else factorial(n) * (n + 1)
    orbits = _orbit_count(n, mode)
    if k % 2:
        return orbits * per_row ** (k - 1)
    pinned = 1 if mode is TableMode.PLAIN else n + 1
    return pinned * orbits * per_row ** (k - 2)


def _axes(k: int, n: int, mode: TableMode) -> tuple[list[RowOptions], int]:
    """The options of each of the k rows as columns, and the orbit axis.

    A row's options are (columns, weights): an (n, options) array whose row
    j holds column j of every option, a mark stored as ``_MARK``, and their
    row signs.  The partition axis, row 2 when k is even and the first row
    is pinned and row 1 when k is odd, runs over orbit representatives whose
    weights are their signed orbit sizes (Python ints); its index is
    returned.  The n!-long options of every row are built only when some row
    uses them, once for all the rows that share them.
    """

    def columns(options: list[Option]) -> RowOptions:
        values, weights = zip(*options)
        return np.ascontiguousarray(np.array(values, dtype=_value_dtype(n)).T), weights

    axis = 0 if k % 2 else 1
    rows = [columns(_row_options(n, mode)) if k > axis + 1 else None] * k
    if axis == 1:
        rows[0] = columns(_marked([(tuple(range(n)), 1)], mode))
    rows[axis] = columns(_orbit_options(n, mode))
    return rows, axis


# -- the block kernel ------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    """Everything the block kernel needs for one (k, n, mode).

    A table is a flat mixed-radix index over the k rows' options.
    ``columns[i][j]`` holds column j of every option of row i.  ``signs``
    pairs each row but the orbit axis with its options' signs; the orbit
    axis options carry Python-int ``weights``.
    ``key_lut`` maps a column code (`_column_codes`) to its packed exponent
    increment (`_key_layout`), or to -1 when mu_1 = 0 kills the table.
    """

    n: int
    radices: tuple[int, ...]
    columns: tuple[np.ndarray, ...]
    signs: tuple[tuple[int, np.ndarray], ...]
    orbit_axis: int
    weights: tuple[int, ...]
    layout: tuple[tuple[int, int], ...]
    key_lut: np.ndarray
    marked: bool

    @property
    def key_bits(self) -> int:
        shift, width = self.layout[-1]
        return shift + width

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple, slots 0..k, of a packed key."""
        return tuple(
            (key >> shift) & ((1 << width) - 1) for shift, width in self.layout
        )


def _key_layout(k: int, n: int) -> tuple[tuple[int, int], ...]:
    """(bit offset, width) of exponent slots 0..k in a packed key.

    A table has k*n entries, so slot 0 (marks and m_1 singletons) counts at
    most k*n and slot c >= 2 at most k*n // c groups; slot 1 stays empty.
    """
    most = [k * n, 0] + [k * n // c for c in range(2, k + 1)]
    layout = []
    shift = 0
    for m in most:
        layout.append((shift, m.bit_length()))
        shift += m.bit_length()
    return tuple(layout)


def _sort_columns(vals: list[np.ndarray]) -> None:
    """Sort k equal-length arrays elementwise across the list, in place.

    An odd-even transposition network: k rounds of compare-exchanges.
    """
    k = len(vals)
    for rnd in range(k):
        for j in range(rnd % 2, k - 1, 2):
            a, b = vals[j], vals[j + 1]
            vals[j] = np.minimum(a, b)
            vals[j + 1] = np.maximum(a, b)


def _column_codes(ordered: list[np.ndarray]) -> np.ndarray:
    """Code of each sorted column: bit i says entries i and i+1 are equal,
    bit k-1 that the first is a mark.  It fixes the column's weight."""
    k = len(ordered)
    code = (ordered[0] == _MARK).astype(np.uint8 if k <= 8 else np.uint16)
    for i in range(k - 2, -1, -1):
        code += code
        code += ordered[i] == ordered[i + 1]
    return code.astype(np.intp)


def _column_lookup(
    k: int, marked: bool, layout: tuple[tuple[int, int], ...]
) -> np.ndarray:
    """Packed key increment of every column code, -1 where the column kills.

    Each code is realised by one sorted column, whose weight comes from
    `_weight_key`, so the column rule has one definition.
    """
    codes = np.arange(1 << k)
    column = [np.where((codes >> (k - 1)) & 1, _MARK, 0)]
    for i in range(1, k):
        column.append(column[-1] + 1 - ((codes >> (i - 1)) & 1))
    key_lut = np.empty(1 << k, dtype=np.int64)
    for code, values in zip(
        _column_codes(column).tolist(), zip(*(c.tolist() for c in column))
    ):
        exp = _weight_key([(v,) for v in values], marked)
        key_lut[code] = -1 if exp is None else sum(
            e << shift for e, (shift, _) in zip(exp, layout)
        )
    return key_lut


def _check_kernel_limits(k: int, n: int, mode: TableMode, total: int) -> None:
    """Refuse, before building anything, what the block kernel cannot hold.

    Its column lookup has 2^k entries, and a table's index, and its packed
    key together with the orbit option, must fit in 63 bits.
    """
    if k > _MAX_K:
        raise ValueError(f"the table kernel handles k <= {_MAX_K}, got k={k}")
    bits = sum(width for _, width in _key_layout(k, n))
    bits += (_orbit_count(n, mode) - 1).bit_length()
    if bits > 63 or total >> 63:
        raise ValueError(f"k={k}, n={n} is too large for the table kernel's 64-bit keys")


def _plan(k: int, n: int, mode: TableMode) -> _Plan:
    rows, orbit_axis = _axes(k, n, mode)
    layout = _key_layout(k, n)
    marked = mode is TableMode.MARKED
    return _Plan(
        n=n,
        radices=tuple(columns.shape[1] for columns, _ in rows),
        columns=tuple(columns for columns, _ in rows),
        signs=tuple(
            (i, np.array(s, dtype=np.int8))
            for i, (_, s) in enumerate(rows) if i != orbit_axis
        ),
        orbit_axis=orbit_axis,
        weights=rows[orbit_axis][1],
        layout=layout,
        key_lut=_column_lookup(k, marked, layout),
        marked=marked,
    )


def _digits(start: int, stop: int, radices: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix digits of the codes start .. stop-1, as (len(radices), count).

    Digit i of code t is row i's option index in table t (or, in
    `detmom.sampling`, entry i's support index in matrix t); the last digit
    varies fastest.
    """
    codes = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((len(radices), len(codes)), dtype=np.int64)
    for i in range(len(radices) - 1, 0, -1):
        # Floor division and a multiply beat np.divmod several times over.
        rest = codes // radices[i]
        digits[i] = codes - rest * radices[i]
        codes = rest
    digits[:1] = codes  # an empty slice when there are no radices (n = 0)
    return digits


def _add_grouped(acc: dict[int, int], keys: np.ndarray, weights: np.ndarray) -> None:
    """Add into ``acc`` the sum of ``weights`` for each distinct entry of ``keys``.

    The sums are taken in the dtype of ``weights``: int64, or ``object``
    for Python ints.
    """
    groups, which = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(groups), dtype=weights.dtype)
    np.add.at(sums, which, weights)
    for group, w in zip(groups.tolist(), sums.tolist()):
        acc[group] = acc.get(group, 0) + w


def _accumulate_range(
    plan: _Plan, lo: int, hi: int, progress: Optional[ProgressFn] = None
) -> dict[int, int]:
    """Summed row signs of the tables lo .. hi-1, per (key, orbit option).

    The result maps ``key | option << plan.key_bits`` to the sum of the
    signs of the rows other than the orbit axis, over the surviving tables
    with that exponent key and orbit axis option.
    ``progress`` gets (tables visited, ``hi - lo``) after every block.
    """
    acc: dict[int, int] = {}
    for start in range(lo, hi, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, hi)
        digits = _digits(start, stop, plan.radices)
        key = np.zeros(stop - start, dtype=np.int64)
        for j in range(plan.n):
            column = [col[j][d] for col, d in zip(plan.columns, digits)]
            _sort_columns(column)
            step = plan.key_lut[_column_codes(column)]
            key += step
            if plan.marked:
                alive = step >= 0
                digits = digits[:, alive]
                key = key[alive]
                if not len(key):
                    break
        sign = np.ones(len(key), dtype=np.int64)
        for i, row_signs in plan.signs:
            sign *= row_signs[digits[i]]
        key |= digits[plan.orbit_axis] << plan.key_bits
        _add_grouped(acc, key, sign)
        if progress:
            progress(stop - lo, hi - lo)
    return acc


def oracle_moment(
    k: int,
    n: int,
    mode: TableMode = TableMode.PLAIN,
    budget: Optional[int] = None,
    workers: int = 1,
    progress: Optional[ProgressFn] = None,
) -> MomentPolynomial:
    """E[det(A)^k] by table enumeration; raw basis (plain) or central (marked).

    Raises `BudgetExceededError` before doing any work if the enumeration
    would exceed ``budget`` weight evaluations.  ``progress`` receives
    (tables visited, `table_count`) after every block in this process,
    serial or a pool that falls back to one CPU, or after every chunk of
    the index range when pooled.  Results are exact and independent of
    ``workers``; a pool starts at most one process per chunk and per CPU.
    """
    _check_kn(k, n)
    total = table_count(k, n, mode)
    _check_budget(
        total, budget, DEFAULT_BUDGET, f"table enumeration for k={k}, n={n}",
        "weight evaluations",
    )
    _check_kernel_limits(k, n, mode, total)

    plan = _plan(k, n, mode)
    if total < _PARALLEL_THRESHOLD:
        workers = 1
    parts = map_ranges(_accumulate_range, plan, total, workers, progress)

    # Each chunk's (key, orbit option) sum meets the option's weight once:
    # orbit sizes outgrow int64 (21! > 2**63), the sums of row signs do not.
    sums: dict[int, int] = {}
    low = (1 << plan.key_bits) - 1
    for part in parts:
        for group, s in part.items():
            key = group & low
            sums[key] = sums.get(key, 0) + s * plan.weights[group >> plan.key_bits]
    # An even k pinned the first row to the identity.
    scale = 1 if k % 2 else factorial(n)
    basis = Basis.CENTRAL if mode is TableMode.MARKED else Basis.RAW
    return MomentPolynomial(
        basis, {plan.unpack(key): scale * c for key, c in sums.items() if c}
    )
