"""Numerical cross-checks: Monte-Carlo estimates and exhaustive averages.

Determinants of matrices with rational entries are computed exactly after
clearing denominators, by one fraction-free (Bareiss) kernel, `_bareiss`,
vectorised over a batch of matrices held batch axis last, (n, n, B), so
every elementwise loop runs over B contiguous items.  By Sylvester's
identity every intermediate entry is a minor, so Hadamard's inequality
bounds what each elimination step forms (`_bareiss_bound`), and each step
runs in the cheapest dtype its own bound allows (`_step_dtype`):

- float64 below 2^53: +-1 entries for steps 0-12 (all of n <= 14),
  |entry| <= 2 for steps 0-8 (n <= 10).  Every product, difference and
  exact quotient of such integers is exact in float64, and its division is
  much cheaper than int64 floor division.
- int64 below 2^63: +-1 entries for steps 13-14, |entry| <= 2 for 9-10.
- numpy ``object`` arrays of Python ints beyond that.

The bounds grow with the step, so an elimination only moves down this
list: a +-1 draw at n = 20 runs 13 steps in float64, 2 in int64 and 4 in
``object``, and converts only the live trailing block on the way.  Either
way the determinants are exact integers.  Random matrices are gathered
from the scaled support straight into the kernel's layout (`_gather_dets`:
`np.take` through the transposed index array).

The exhaustive average runs over sets of n distinct rows, in blocks of
`BLOCK_SIZE` sets (`_row_sets`), each weighted by n! times its rows'
probabilities (for odd k and n >= 2 a row swap makes it 0); the discrete
Monte-Carlo sums add det^k once per distinct determinant of a block.  Both
are exact rationals; only the final estimate is floated.  When a law with
s support values has no more than `BLOCK_SIZE` (and no more than the
sample count) matrices, s^(n^2), the Monte-Carlo draw first takes every
matrix's determinant once, in the order of the matrix codes that
`tables._digits` decodes (`_det_table`); a block then only reads its
matrices' codes off the drawn indices, looks up their determinants and
counts them with `np.bincount`.
Standard normal entries use floating LU determinants.  A sum that overflows
float64 raises `OverflowError` instead of reporting ``inf``; a normal draw
stops at the first block whose sums are not finite, since the merged sums
cannot be finite after it.

Reproducibility: samples are drawn in fixed-size blocks from a counter-based
Philox generator keyed by (seed, block index).  Each block gives its
(sum of det^k, sum of det^2k), floats for normal entries and exact ints for
a finite law, and both laws merge them in block order by one compensated
sum (`_kahan_sum`, exact on ints), so the result for a given seed is
bit-for-bit identical for any worker count.  A block is drawn and its determinants taken in parts of
about `PART_ENTRIES` matrix entries (`_parts`), by consecutive calls on the
block's generator, which give the same numbers as one call; the block's
sums (or `np.unique` counts) then run over all of its determinants.  So
the memory a worker holds no longer grows with the block's
BLOCK_SIZE * n^2 entries, and the estimates are those of a whole-block
draw.  A draw large enough to pay for a pool (`_PARALLEL_THRESHOLD`, in
samples * n^3) hands contiguous ranges of blocks to `pool.map_ranges`,
which sends the law, and the determinant table if any, to each worker once;
smaller draws run in this process.  A draw in this process (serial,
or pooled on a machine with one CPU) reports progress after every block, a
pooled one after each range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import _check_budget, _check_kn
from .formulas import (
    _fourth_moment,
    _second_moment,
    _sixth_moment_zero_mean,
    gaussian_det_moment,
    gaussian_moment_table,
)
from .poly import Basis, Rational, _rational, _shifted
from .pool import map_ranges
from .tables import _add_grouped, _digits

BLOCK_SIZE = 4096
# Matrix entries a Monte-Carlo block draws and eliminates at once (`_parts`).
# A float64 part is 512 KB, so a block's memory no longer grows with its
# BLOCK_SIZE * n^2 entries (118 MB of normal entries at n = 60).  Drawing a
# block in consecutive parts from its generator gives the same numbers as
# one call, so the parts change no estimate.
PART_ENTRIES = 2**16
# Monte-Carlo work, in samples * n^3, from which a pool of 2 workers beats the
# serial draw, a draw through the determinant table included.  Serial against
# pooled `mc_estimate`, each in a fresh interpreter after `import detmom.cli`,
# median of 11 alternating pairs on 2 free vCPUs, with the process pool
# already imported: |entry| <= 2, n = 12, 8192 samples (14.2M) 60 / 56 ms,
# 16,384 (28.3M) 101 / 79 ms; normal, n = 8, 40,000 (20.5M) 96 / 76 ms; +-1,
# n = 8, 32,768 (16.8M) 89 / 98 ms, 65,536 (33.6M) 185 / 121 ms; through the
# table at n = 3, 10^6 (27M) 94 / 75 ms.  A pooled draw also imports the pool
# (`concurrent.futures`, with `multiprocessing`; 17-22 ms alone, 11-28 ms more
# per pooled draw in paired runs), which moves the break-even from about 14M
# to about 28M.  With the second vCPU taken by other load, the pool lost every
# pair from 14.2M to 51M (8 to 18 pairs each).
_PARALLEL_THRESHOLD = 32_000_000
DEFAULT_SAMPLES = 10**6
DEFAULT_EXHAUSTIVE_BUDGET = 10**6
DEFAULT_MC_BUDGET = 10**8


class DistKind(Enum):
    STD_NORMAL = "normal"
    DISCRETE = "discrete"


@dataclass(frozen=True)
class DistributionSpec:
    """An entry distribution: standard normal, or finite (``rademacher()``
    is the finite law of +-1, each with probability 1/2).

    Support values and probabilities are stored as `Fraction`s; an inexact
    real (a float) raises TypeError.
    """

    kind: DistKind
    values: tuple[Fraction, ...] = ()
    probs: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if self.kind is DistKind.STD_NORMAL:
            if self.values or self.probs:
                raise ValueError("the normal distribution takes no support")
            return
        for name in ("values", "probs"):
            exact = tuple(Fraction(_rational(x)) for x in getattr(self, name))
            object.__setattr__(self, name, exact)
        if len(self.values) != len(self.probs) or not self.values:
            raise ValueError("values and probs must be equal-length and nonempty")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to one exactly")
        if len(set(self.values)) != len(self.values):
            raise ValueError("support values must be distinct")

    @classmethod
    def rademacher(cls) -> "DistributionSpec":
        half = Fraction(1, 2)
        return cls.discrete((-1, 1), (half, half))

    @classmethod
    def std_normal(cls) -> "DistributionSpec":
        return cls(DistKind.STD_NORMAL)

    @classmethod
    def discrete(
        cls, values: Sequence[Rational], probs: Sequence[Rational]
    ) -> "DistributionSpec":
        return cls(DistKind.DISCRETE, tuple(values), tuple(probs))

    @property
    def finite(self) -> bool:
        return self.kind is not DistKind.STD_NORMAL


def exact_moments(dist: DistributionSpec, up_to: int) -> dict[int, Fraction]:
    """Raw moments m_1 .. m_up_to of the entry distribution, exact."""
    if dist.kind is DistKind.STD_NORMAL:
        return gaussian_moment_table(up_to)
    return {
        r: sum((p * v**r for v, p in zip(dist.values, dist.probs)), Fraction(0))
        for r in range(1, up_to + 1)
    }


# -- exact determinants ----------------------------------------------------


def exact_det(rows: Sequence[Sequence[Rational]]) -> Fraction:
    """Exact determinant of a rational matrix via denominator-cleared Bareiss."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("exact_det needs a square matrix")
    scale, ints = _common_denominator([Fraction(_rational(x)) for r in rows for x in r])
    mats = np.array(ints, dtype=object).reshape(1, n, n)
    return Fraction(int(_batch_int_det(mats)[0]), scale**n)


def _common_denominator(fracs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm D of the denominators of ``fracs``, and each x * D, exact ints."""
    d = math.lcm(*(x.denominator for x in fracs))
    return d, [x.numerator * (d // x.denominator) for x in fracs]


def _batch_int_det(mats: np.ndarray) -> np.ndarray:
    """Exact determinants of a (B, n, n) integer-valued array; see `_bareiss`."""
    top = int(np.abs(mats).max(initial=0))
    return _bareiss(np.moveaxis(mats, 0, -1).copy(), top)


def _gather_dets(support: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Exact determinants of the matrices ``support[idx]``, idx of shape (B, n, n).

    `np.take` through the transposed indices writes a fresh C-contiguous
    (n, n, B) array, the kernel's layout, with no second copy.  (Plain
    fancy indexing with the same indices gives a strided array.)
    """
    top = int(np.abs(support).max(initial=0))
    return _bareiss(np.take(support, idx.transpose(1, 2, 0)), top)


def _bareiss(m: np.ndarray, top: int) -> np.ndarray:
    """Exact determinants of an (n, n, B) array, batch axis last, by Bareiss.

    ``m`` holds integers of magnitude at most ``top``, in any dtype, and
    may be overwritten.  Step s runs in the dtype `_step_dtype` picks for
    its own bound, `_bareiss_bound` (s + 2, top): float64 holds integers
    below 2^53 exactly, so its products, differences and exact quotients
    are the integer ones, and it divides with ``/``; int64 and ``object``
    (Python ints) divide with ``//``.  Step 0 takes ``m`` into its dtype;
    the bounds grow with s, so the later steps convert only the live
    trailing block, the signs and the previous pivots, at most twice
    (float64 reaches ``object`` through int64).  Determinants come back as
    int64 when Hadamard's bound on them is below 2^63, else as Python ints
    in an ``object`` array.

    Each step pivots on the first nonzero entry at or below the diagonal
    and applies one fraction-free rank-1 update to the trailing block of
    every matrix at once.  A matrix whose pivot column is zero is singular:
    its trailing block is zeroed and given a unit pivot, so it stays zero
    with every division exact.
    """
    n, _, B = m.shape
    # Hadamard: |det| <= n^(n/2) top^n, below 2^63 iff n^n top^(2n) < 2^126.
    out = np.dtype(np.int64 if n**n * top ** (2 * n) < 2**126 else object)
    if n == 0:
        return np.ones(B, dtype=out)
    sign = np.ones(B, dtype=m.dtype)
    prev = np.ones(B, dtype=m.dtype)
    for s in range(n - 1):
        dtype = _step_dtype(_bareiss_bound(s + 2, top))
        if s == 0 or dtype != m.dtype:
            m, sign, prev = (_exact_as(x, dtype) for x in (m, sign, prev))
            # One buffer per dtype for the steps' rank-1 products.
            buf = np.empty((n - s - 1) ** 2 * B, dtype=dtype)
        # m is the live trailing block; its row and column 0 are step s's.
        zero = np.nonzero(m[0, 0] == 0)[0]
        if zero.size:
            nonzero = m[1:, 0, zero] != 0
            found = nonzero.any(axis=0)
            dead = zero[~found]
            m[:, :, dead] = 0
            m[0, 0, dead] = 1
            swap = zero[found]
            r = nonzero[:, found].argmax(axis=0) + 1
            m[0, :, swap], m[r, :, swap] = m[r, :, swap], m[0, :, swap]
            sign[swap] = -sign[swap]
        piv = m[0, 0].copy()
        sub = m[1:, 1:]
        rank1 = buf[: sub.size].reshape(sub.shape)
        np.multiply(m[1:, 0, None], m[0, None, 1:], out=rank1)
        sub *= piv
        sub -= rank1
        if s:
            divide = np.true_divide if dtype == np.float64 else np.floor_divide
            divide(sub, prev, out=sub)
        prev = piv
        m = sub
    return _exact_as(sign * m[0, 0], out)


def _bareiss_bound(n: int, max_abs: int) -> int:
    """The largest magnitude Bareiss forms on n x n matrices, |entries| <= max_abs.

    By Sylvester's identity every intermediate entry is a minor of order
    r <= n - 1, bounded by Hadamard's inequality as H_r = r^(r/2) max_abs^r.
    The largest value formed before a division is a difference of two
    products of such minors, at most 2 H_(n-1)^2.  So `_bareiss_bound`
    (s + 2, max_abs) bounds what elimination step s forms, whatever n.
    """
    r = max(n - 1, 1)
    return 2 * r**r * max_abs ** (2 * r)


def _step_dtype(bound: int) -> np.dtype:
    """The cheapest exact dtype for integer arithmetic below ``bound``.

    float64 below 2^53 (+-1 entries up to Bareiss step 12, |entry| <= 2 up
    to step 8), int64 below 2^63 (steps 13-14 and 9-10), else ``object``.
    """
    if bound < 2**53:
        return np.dtype(np.float64)
    return np.dtype(np.int64 if bound < 2**63 else object)


def _exact_as(x: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Integer-valued ``x`` in ``dtype``; float64 reaches ``object`` through int64."""
    if x.dtype == np.float64 and dtype == object:
        x = x.astype(np.int64)
    return x.astype(dtype, copy=False)


def _integer_support(dist: DistributionSpec) -> tuple[int, np.ndarray]:
    """The lcm ``scale`` of the support's denominators, and support * scale.

    The array has the dtype of the first Bareiss step, `_step_dtype`
    (`_bareiss_bound` (2, top)), which holds the entries themselves; the
    kernel moves on to int64 or ``object`` from the step that needs it.
    """
    scale, scaled = _common_denominator(dist.values)
    top = max(map(abs, scaled))
    return scale, np.array(scaled, dtype=_step_dtype(_bareiss_bound(2, top)))


# -- exhaustive averages ---------------------------------------------------


def _det_table(support: np.ndarray, n: int) -> tuple[list[int], np.ndarray]:
    """The distinct determinants of all n x n matrices over ``support``.

    Returns them sorted, with, for every matrix code, the position of its
    determinant among them.  Matrix number c takes the base-s digits of c
    (`tables._digits`) as its entries' support indices, row by row.
    """
    total = len(support) ** (n * n)
    idx = _digits(0, total, (len(support),) * (n * n)).T.reshape(total, n, n)
    values, ids = np.unique(_gather_dets(support, idx), return_inverse=True)
    return values.tolist(), ids.reshape(-1)


def _row_sets(codes: int, n: int) -> Iterator[np.ndarray]:
    """Every set of n distinct codes below ``codes``, in blocks of `BLOCK_SIZE`.

    Each block is (count, n), every set in ascending order.  Set number r
    is the one with r = C(c_1, 1) + ... + C(c_n, n) for c_1 < ... < c_n
    (the combinatorial number system), so c_i is read off a table of
    C(c, i) by binary search, from i = n down.
    """
    binoms = np.zeros((n + 1, codes + 1), dtype=np.int64)
    binoms[0] = 1
    for i in range(1, n + 1):
        # binoms[i, c] = C(c, i) = C(0, i-1) + ... + C(c-1, i-1).
        np.cumsum(binoms[i - 1, :-1], out=binoms[i, 1:])
    total = math.comb(codes, n)
    for start in range(0, total, BLOCK_SIZE):
        rank = np.arange(start, min(start + BLOCK_SIZE, total), dtype=np.int64)
        out = np.empty((len(rank), n), dtype=np.int64)
        for i in range(n, 0, -1):
            c = out[:, i - 1] = np.searchsorted(binoms[i], rank, side="right") - 1
            rank -= binoms[i, c]
        yield out


def exhaustive_moment(
    dist: DistributionSpec,
    k: int,
    n: int,
    budget: Optional[int] = None,
) -> Fraction:
    """E[det(A)^k] as an exact average over all |support|^(n^2) matrices.

    The rows are i.i.d., so the average runs over sets of n distinct rows
    instead: a repeated row gives det = 0.  For odd k and n >= 2, swapping
    two rows negates det^k, so the moment is 0 and nothing is computed.
    Otherwise det^k does not depend on row order, and a set stands for its
    n! orderings: it weighs n! times the product of its rows'
    probabilities.  Those are integers over one common denominator D, so
    the division by D^(n^2) happens once, at the end.  The sets come from
    `_row_sets` over the rows that `tables._digits` decodes in base s, their
    determinants from `_gather_dets`.  The weights are summed per distinct
    determinant of each block and merged across blocks
    (`tables._add_grouped`), and det^k is taken once per distinct
    determinant.  The budget counts matrices, s^(n^2), and is checked first.
    """
    if not dist.finite:
        raise ValueError("exhaustive averaging needs a finite support")
    _check_kn(k, n)
    s = len(dist.values)
    cells = n * n
    _check_budget(
        s**cells, budget, DEFAULT_EXHAUSTIVE_BUDGET, f"exhaustive average for n={n}",
        "matrices",
    )
    if k % 2 and n >= 2:
        return Fraction(0)

    scale, support = _integer_support(dist)
    denom, numer = _common_denominator(dist.probs)
    # All set weights together sum to at most denom^(n^2).
    dtype = np.int64 if denom**cells < 2**63 else object
    rows = _digits(0, s**n, (s,) * n).T
    row_weights = np.array(numer, dtype=dtype)[rows].prod(axis=1)

    weights: dict[int, int] = {}
    for chosen in _row_sets(s**n, n):
        dets = _gather_dets(support, rows[chosen])
        _add_grouped(weights, dets, row_weights[chosen].prod(axis=1))
    # Fewer than n distinct rows leave no set: every matrix repeats a row.
    acc = sum(w * d**k for d, w in weights.items())
    return Fraction(math.factorial(n) * acc, denom**cells * scale ** (n * k))


# -- symbolic targets ------------------------------------------------------


def exact_moment_target(dist: DistributionSpec, k: int, n: int) -> Optional[Fraction]:
    """Closed-form value of E[det(A)^k] when one of the formulas applies.

    Covers every odd k at n >= 2, where swapping two rows negates det^k so
    the moment is 0; every k at n = 1, where it is the entry moment m_k;
    k = 2 and 4 for any entry law, k = 6 for centered entries, and any even
    k for standard normal entries.  Returns None otherwise: k = 6 with a
    nonzero mean, and even k >= 8 for other laws.  Standard normal entries
    with an even k take the Gaussian product form.  The other laws run the
    closed forms of `detmom.formulas` on the law's exact moments (central
    ones for k = 4, from the small cached expansions `detmom.poly._shifted`
    (r, RAW)), so the polynomial E[det^k] is never built: O(n^2) rational
    operations.  On one core of a Xeon, k = 6 takes
    about 0.1 s at n = 100 and 0.3 s at n = 200, and k = 4 about 0.02 s at
    n = 100.
    """
    _check_kn(k, n)
    if n == 0:
        return Fraction(1)
    if k % 2 and n >= 2:
        return Fraction(0)
    if dist.kind is DistKind.STD_NORMAL and k % 2 == 0:
        return gaussian_det_moment(k, n)
    m = exact_moments(dist, max(k, 6))
    if n == 1:
        return m[k]
    if k == 2:
        return _second_moment(n, m[1], m[2])
    if k == 4:
        mu = [_shifted(r, Basis.RAW).evaluate(m, m[1]) for r in (2, 3, 4)]
        return _fourth_moment(n, m[1], *mu)
    if k == 6 and m[1] == 0:
        return _sixth_moment_zero_mean(n, m[2], m[3], m[4], m[6])
    return None


# -- Monte Carlo -----------------------------------------------------------


@dataclass(frozen=True)
class EstimateReport:
    """Outcome of a Monte-Carlo run, with the exact target when known."""

    estimate: float
    std_error: float
    samples: int
    seed: int
    exact_target: Optional[Fraction] = None

    def within(self, sigmas: float) -> Optional[bool]:
        """Whether the estimate is within ``sigmas`` standard errors of target."""
        if self.exact_target is None:
            return None
        return abs(self.estimate - float(self.exact_target)) <= sigmas * self.std_error

    def to_json_dict(self) -> dict:
        out = {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "samples": self.samples,
            "seed": self.seed,
        }
        if self.exact_target is not None:
            out["exact_target"] = str(self.exact_target)
        return out


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = ((seed % 2**64) << 64) | block
    return np.random.Generator(np.random.Philox(key=key))


def _parts(count: int, n: int) -> list[int]:
    """Sizes of the parts a block of ``count`` n x n matrices is drawn in.

    Each part holds about `PART_ENTRIES` entries, at least one matrix.
    """
    step = max(1, PART_ENTRIES // max(n * n, 1))
    return [min(step, count - lo) for lo in range(0, count, step)]


def _block_draws(
    seed: int, samples: int, n: int, lo: int, hi: int,
    part: Callable[[np.random.Generator, int], np.ndarray],
    progress: Optional[Callable[[int, int], None]],
) -> Iterator[np.ndarray]:
    """``part(g, m)`` over each of the blocks lo .. hi-1, joined per block.

    Block b's generator is `_block_rng` (seed, b); `_parts` sizes its calls.
    ``progress`` gets (blocks done, ``hi - lo``) once the caller is done
    with a block.
    """
    for b in range(lo, hi):
        count = min(BLOCK_SIZE, samples - b * BLOCK_SIZE)
        g = _block_rng(seed, b)
        yield np.concatenate([part(g, m) for m in _parts(count, n)])
        if progress:
            progress(b + 1 - lo, hi - lo)


def _normal_blocks(shared: tuple, lo: int, hi: int, progress=None) -> list[tuple]:
    """(sum of det^k, sum of det^2k) of each of the blocks lo .. hi-1.

    Stops after the first block whose sums are not finite: the merged sums
    cannot be finite after it, and mc_estimate refuses them.
    """
    seed, samples, n, k = shared

    def part(g: np.random.Generator, m: int) -> np.ndarray:
        return np.linalg.det(g.standard_normal((m, n, n)))

    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for dets in _block_draws(seed, samples, n, lo, hi, part, progress):
            vals = dets**k
            out.append((float(np.sum(vals)), float(np.sum(vals * vals))))
            if not all(map(math.isfinite, out[-1])):
                break
    return out


def _discrete_blocks(shared: tuple, lo: int, hi: int, progress=None) -> list[tuple]:
    """Exact (sum of det^k, sum of det^2k), support scaled, of each block lo .. hi-1."""
    seed, samples, n, k, support, cum, uniform, table = shared
    s = len(support)
    values, ids = table or (None, None)
    # The matrix code of `_det_table`: entry j is digit j of `tables._digits`,
    # the last varying fastest.
    digits = s ** np.arange(n * n - 1, -1, -1)

    def part(g: np.random.Generator, m: int) -> np.ndarray:
        """Determinants, or their ids in ``table``, of the next m matrices."""
        if uniform:
            idx = g.integers(0, s, size=(m, n, n))
        else:
            u = g.random((m, n, n))
            idx = np.minimum(np.searchsorted(cum, u, side="right"), s - 1)
        if table is None:
            return _gather_dets(support, idx)
        return ids[idx.reshape(m, n * n) @ digits]

    out = []
    for keys in _block_draws(seed, samples, n, lo, hi, part, progress):
        if table is None:
            found, counts = np.unique(keys, return_counts=True)
            values = found.tolist()
        else:
            counts = np.bincount(keys, minlength=len(values))
        sx = sxx = 0
        for d, c in zip(values, counts.tolist()):
            v = d**k
            sx += c * v
            sxx += c * v * v
        out.append((sx, sxx))
    return out


def _kahan_sum(values: Iterable[Rational]) -> Rational:
    """Compensated sum; exact on ints, where the compensation stays 0.

    It starts from the int 0, so on floats every operation is the float one.
    """
    total = comp = 0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def mc_estimate(
    dist: DistributionSpec,
    k: int,
    n: int,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    workers: int = 1,
    budget: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> EstimateReport:
    """Monte-Carlo estimate of E[det(A)^k]; deterministic per seed.

    Raises `BudgetExceededError` before drawing anything if ``samples``
    exceeds ``budget`` (default `DEFAULT_MC_BUDGET`).  ``progress`` gets
    (blocks done, blocks) after every block of a draw in this process, which
    includes a pooled one that falls back to one CPU, and after each range
    of blocks of a pooled one (`pool.map_ranges`).
    """
    if samples < 2:
        raise ValueError("need at least two samples for a standard error")
    _check_kn(k, n)
    _check_budget(
        samples, budget, DEFAULT_MC_BUDGET, f"Monte-Carlo estimate for k={k}, n={n}",
        "samples",
    )

    # Every draw needs it: imported here, before `map_ranges` can fork, it
    # spares each pool worker its own import (36 ms, 17 ms of it CPU, per
    # worker of 2 on 2 vCPUs).
    import numpy.random  # noqa: F401

    blocks = -(-samples // BLOCK_SIZE)
    if samples * n**3 < _PARALLEL_THRESHOLD:
        workers = 1
    if dist.kind is DistKind.STD_NORMAL:
        job, shared, denom = _normal_blocks, (seed, samples, n, k), 1
    else:
        scale, support = _integer_support(dist)
        uniform = len(set(dist.probs)) == 1
        cum = np.cumsum([float(p) for p in dist.probs])
        # Few enough matrices to take every determinant once (`_det_table`).
        small = len(support) ** (n * n) <= min(BLOCK_SIZE, samples)
        table = _det_table(support, n) if small else None
        job, shared = _discrete_blocks, (seed, samples, n, k, support, cum, uniform, table)
        denom = Fraction(scale) ** (n * k)
    sums = [s for chunk in map_ranges(job, shared, blocks, workers, progress) for s in chunk]
    sum_x = _kahan_sum(x for x, _ in sums) / denom
    sum_xx = _kahan_sum(xx for _, xx in sums) / denom**2

    # Floats for normal entries, exact Fractions for a finite law, which
    # round only here.  A sum past float64 shows as inf or nan in a float,
    # as OverflowError from a Fraction.
    mean = sum_x / samples
    var = max(sum_xx - samples * mean * mean, 0) / (samples - 1)
    try:
        estimate = float(mean)
        se = math.sqrt(float(var) / samples)
        if not (math.isfinite(estimate) and math.isfinite(se)):
            raise OverflowError
    except OverflowError:
        raise OverflowError(
            f"the Monte-Carlo sums of det(A)^{k} at n={n} overflow float64; "
            "no finite estimate can be reported"
        ) from None
    return EstimateReport(
        estimate=estimate,
        std_error=se,
        samples=samples,
        seed=seed,
        exact_target=exact_moment_target(dist, k, n),
    )
