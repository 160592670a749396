"""Exact determinants, exhaustive averages, and Monte-Carlo estimation."""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmom.errors import BudgetExceededError
from detmom.formulas import (
    fourth_moment,
    gaussian_det_moment,
    second_moment,
    sixth_moment_zero_mean,
)
from detmom.poly import MomentPolynomial, central_to_raw
from detmom import pool, sampling, tables
from detmom.sampling import (
    DistKind,
    DistributionSpec,
    EstimateReport,
    exact_det,
    exact_moment_target,
    exact_moments,
    exhaustive_moment,
    mc_estimate,
    _bareiss,
    _bareiss_bound,
    _batch_int_det,
    _gather_dets,
    _integer_support,
    _step_dtype,
)

RADEMACHER = DistributionSpec.rademacher()
NORMAL = DistributionSpec.std_normal()


def permanent_style_det(rows):
    """Cofactor-free reference determinant via the permutation sum."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = Fraction(-1 if inv % 2 else 1)
        for i in range(n):
            term *= Fraction(rows[i][perm[i]])
        total += term
    return total


# -- distributions ---------------------------------------------------------


def test_rademacher_moments_alternate():
    assert exact_moments(RADEMACHER, 6) == {
        1: 0, 2: 1, 3: 0, 4: 1, 5: 0, 6: 1
    }


def test_discrete_moments_worked_by_hand():
    dist = DistributionSpec.discrete(
        [Fraction(0), Fraction(1)], [Fraction(1, 4), Fraction(3, 4)]
    )
    assert exact_moments(dist, 3) == {1: Fraction(3, 4), 2: Fraction(3, 4),
                                      3: Fraction(3, 4)}


def test_normal_moments_are_double_factorials():
    assert exact_moments(NORMAL, 6) == {1: 0, 2: 1, 3: 0, 4: 3, 5: 0, 6: 15}


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError):
        DistributionSpec.discrete([1, 2], [Fraction(1, 2), Fraction(1, 3)])


def test_values_must_be_distinct():
    with pytest.raises(ValueError):
        DistributionSpec.discrete([1, 1], [Fraction(1, 2), Fraction(1, 2)])


def test_the_normal_law_takes_no_support():
    with pytest.raises(ValueError, match="^the normal distribution takes no support$"):
        DistributionSpec(DistKind.STD_NORMAL, (1,), (1,))


@pytest.mark.parametrize("inexact", [0.1, 1.0, np.float64(0.5)])
def test_inexact_reals_are_refused(inexact):
    half = Fraction(1, 2)
    for values, probs in (([inexact, 2], [half, half]), ([1, 2], [inexact, half])):
        with pytest.raises(TypeError, match="inexact"):
            DistributionSpec.discrete(values, probs)
        with pytest.raises(TypeError, match="inexact"):
            DistributionSpec(DistKind.DISCRETE, tuple(values), tuple(probs))
    with pytest.raises(TypeError, match="inexact"):
        exact_det([[1, 2], [3, inexact]])


def test_ints_numpy_ints_and_fractions_stay_exact():
    law = DistributionSpec.discrete([np.int64(-1), 0, Fraction(1, 2)],
                                    [np.int32(0), 1, Fraction(0)])
    assert law.values == (-1, 0, Fraction(1, 2))
    assert all(type(x) is Fraction for x in law.values + law.probs)
    assert exact_det([[np.int64(2), 1], [Fraction(1, 2), 3]]) == Fraction(11, 2)
    tenth = Fraction(1, 10)
    assert exact_moment_target(
        DistributionSpec.discrete([tenth, -tenth], [Fraction(1, 2)] * 2), 2, 2
    ) == Fraction(1, 5000)


def test_finite_flag():
    assert RADEMACHER.finite
    assert not NORMAL.finite
    assert RADEMACHER == DistributionSpec.discrete([-1, 1], [Fraction(1, 2)] * 2)


# -- exact determinants ----------------------------------------------------


def test_exact_det_worked_examples():
    assert exact_det([[1, 2], [3, 4]]) == -2
    assert exact_det([[Fraction(1, 2), Fraction(1, 3)],
                      [Fraction(1, 4), Fraction(1, 5)]]) == Fraction(1, 60)
    assert exact_det([[5]]) == 5
    assert exact_det([[1, 2], [2, 4]]) == 0
    # The empty product: the 0 x 0 determinant is 1.
    assert exact_det([]) == 1


def test_exact_det_refuses_a_matrix_that_is_not_square():
    for rows in ([[1, 2, 3], [4]], [[1, 2], [3, 4], [5, 6]], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(ValueError, match="square"):
            exact_det(rows)


@settings(max_examples=80)
@given(st.lists(st.fractions(), max_size=8))
def test_common_denominator_is_the_lcm_with_exact_numerators(fracs):
    d, numer = sampling._common_denominator(fracs)
    assert d == math.lcm(*(x.denominator for x in fracs))
    assert len(numer) == len(fracs)
    assert all(type(a) is int and Fraction(a, d) == x for a, x in zip(numer, fracs))


def test_exact_det_pivots_past_leading_zeros():
    assert exact_det([[0, 1], [1, 0]]) == -1
    assert exact_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


small_int_matrices = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=80)
@given(small_int_matrices)
def test_exact_det_matches_permutation_sum(rows):
    assert exact_det(rows) == permanent_style_det(rows)


def fraction_det(rows):
    """Reference determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for j in range(c, n):
                m[r][j] -= f * m[c][j]
    return det


def reference_dets(mats):
    return [int(fraction_det(m.tolist())) for m in mats]


def object_dets(mats):
    """The all-``object`` path: a bound no float64 or int64 step allows."""
    return _bareiss(np.moveaxis(mats, 0, -1).astype(object), 2**32).tolist()


def test_batch_determinants_match_scalar_path():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5):
        mats = rng.integers(-20, 21, size=(40, n, n)).astype(np.int64)
        want = [int(permanent_style_det(m.tolist())) for m in mats]
        assert _batch_int_det(mats).tolist() == want
        assert _batch_int_det(mats.astype(object)).tolist() == want
        assert object_dets(mats) == want


@pytest.mark.parametrize(
    "support",
    [(-1, 1), (-1, 0, 1), (0, 0, 0, 1), (-2, -1, 1, 2)],
    ids=["pm1", "zero-pm1", "sparse", "pm1-pm2"],
)
def test_batch_kernel_matches_fraction_reference(support):
    # {-1,0,1} and the sparse support give many zero pivots, row swaps and
    # singular matrices; n = 0 and 1 take no elimination step at all.
    rng = np.random.default_rng(len(support))
    values = np.array(support, dtype=np.int64)
    for n in range(14):
        mats = values[rng.integers(0, len(support), size=(12, n, n))]
        got = _batch_int_det(mats)
        assert got.dtype == np.int64
        assert got.tolist() == reference_dets(mats), n
        assert _batch_int_det(mats.astype(object)).tolist() == got.tolist()
        assert object_dets(mats) == got.tolist()


def test_batch_kernel_handles_zero_and_rank_deficient_matrices():
    mats = np.array(
        [
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 2], [0, 3, 4], [5, 6, 7]],  # dead at the first column
            [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # dead after one step
            [[0, 0, 1], [0, 1, 0], [1, 0, 0]],  # two swaps
            [[1, 1, 1], [1, 1, 2], [1, 2, 3]],  # zero pivot at the second step
        ],
        dtype=np.int64,
    )
    assert _batch_int_det(mats).tolist() == reference_dets(mats)


def sylvester_hadamard(order):
    h = np.array([[1]], dtype=np.int64)
    while len(h) < order:
        h = np.block([[h, h], [h, -h]])
    return h


def paley_hadamard_12():
    # Paley's construction over GF(11), 11 = 3 (mod 4).
    q = 11
    squares = {(x * x) % q for x in range(1, q)}
    chi = [0] + [1 if a in squares else -1 for a in range(1, q)]
    s = np.zeros((q + 1, q + 1), dtype=np.int64)
    s[0, 1:] = 1
    s[1:, 0] = -1
    for i in range(q):
        for j in range(q):
            s[i + 1, j + 1] = chi[(j - i) % q]
    return s + np.eye(q + 1, dtype=np.int64)


def scrambled(h, count, seed):
    """Row and column permutations and sign flips of h: |det| is unchanged."""
    rng = np.random.default_rng(seed)
    n = len(h)
    out = []
    for _ in range(count):
        rows = rng.permutation(n)
        cols = rng.permutation(n)
        flips = rng.choice([-1, 1], size=n)
        out.append(h[rows][:, cols] * flips)
    return np.array(out)


@pytest.mark.parametrize(
    "h, entry, max_n",
    [(sylvester_hadamard(16), 1, 16), (2 * paley_hadamard_12(), 2, 12)],
    ids=["pm1-n16", "pm2-n12"],
)
def test_hadamard_matrices_at_the_int64_boundary(h, entry, max_n):
    # Hadamard matrices have the largest determinant for their entry bound,
    # so the int64 steps are checked up to the last one before `object`.
    n = len(h)
    assert n == max_n
    assert (h @ h.T == entry * entry * n * np.eye(n, dtype=np.int64)).all()
    assert _step_dtype(_bareiss_bound(n, entry)) == np.int64
    assert _step_dtype(_bareiss_bound(n + 1, entry)) == object
    mats = scrambled(h, 6, seed=n)
    got = _batch_int_det(mats)
    assert got.dtype == np.int64
    assert [abs(d) for d in got.tolist()] == [entry**n * n ** (n // 2)] * 6
    assert got.tolist() == reference_dets(mats)
    assert got.tolist() == _batch_int_det(mats.astype(object)).tolist()
    assert got.tolist() == object_dets(mats)


def int64_safe(n, top):
    """Whether every Bareiss step on n x n matrices, |entries| <= top, fits int64."""
    return _bareiss_bound(n, top) < 2**63


def float_safe(n, top):
    """Whether every Bareiss step on n x n matrices, |entries| <= top, fits float64."""
    return _bareiss_bound(n, top) < 2**53


def test_int64_range():
    assert [n for n in range(1, 40) if int64_safe(n, 1)] == list(range(1, 17))
    assert [n for n in range(1, 40) if int64_safe(n, 2)] == list(range(1, 13))
    assert int64_safe(1, 2**31 - 1) and not int64_safe(1, 2**31)


def test_float64_range():
    assert [n for n in range(1, 40) if float_safe(n, 1)] == list(range(1, 15))
    assert [n for n in range(1, 40) if float_safe(n, 2)] == list(range(1, 11))
    assert float_safe(1, 2**26 - 1) and not float_safe(1, 2**26)


def pm(values):
    """A uniform law on integer ``values``."""
    return discrete(values, [Fraction(1, len(values))] * len(values))


def step_dtypes(top, n):
    """The dtype of each Bareiss step on n x n matrices, |entries| <= top."""
    return [_step_dtype(_bareiss_bound(s + 2, top)) for s in range(n - 1)]


def test_support_dtype_follows_the_bounds():
    # Step s forms at most _bareiss_bound(s + 2, top) and runs in the
    # cheapest dtype that holds it: no step reaches float64 past 2^53, nor
    # int64 past 2^63.  The support comes in step 0's dtype.
    limit = {np.dtype(np.float64): 2**53, np.dtype(np.int64): 2**63}
    cheaper = {np.dtype(np.int64): 2**53, np.dtype(object): 2**63}
    for top in (1, 2, 3, 1000, 2**26, 2**31):
        for s in range(20):
            bound = _bareiss_bound(s + 2, top)
            dtype = _step_dtype(bound)
            assert cheaper.get(dtype, 0) <= bound < limit.get(dtype, math.inf), (top, s)
        want = step_dtypes(top, 2)[0]
        assert _integer_support(pm([-top, top]))[1].dtype == want, top
    assert [_integer_support(pm([-t, t]))[1].dtype for t in (1, 1000, 2**26, 2**31)] == [
        np.float64, np.float64, np.int64, object
    ]
    # +-1 entries switch to int64 at step 13 and to object at step 15;
    # |entry| <= 2 at steps 9 and 11.
    f, i, o = np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)
    assert step_dtypes(1, 21) == [f] * 13 + [i] * 2 + [o] * 5
    assert step_dtypes(2, 14) == [f] * 9 + [i] * 2 + [o] * 2
    # The bounds grow with the step, so an elimination never moves back.
    for top in (1, 2, 3, 1000):
        dtypes = step_dtypes(top, 30)
        assert dtypes == sorted(dtypes, key=[f, i, o].index), top


def tier_cases():
    """(support, n, matrices) where the last Bareiss step leaves float64."""
    rng = np.random.default_rng(14)
    h16 = sylvester_hadamard(16)
    h12 = 2 * paley_hadamard_12()
    for values, h, edge in (((-1, 1), h16, 14), ((-2, -1, 0, 1, 2), h12, 10)):
        for n in (edge, edge + 1):
            # Leading blocks of scrambled Hadamard matrices come near the
            # largest determinants; random draws give zero pivots and swaps.
            mats = np.concatenate([
                scrambled(h, 8, seed=n)[:, :n, :n],
                np.array(values)[rng.integers(0, len(values), size=(24, n, n))],
                np.full((1, n, n), max(values)),
            ])
            yield values, n, mats


@pytest.mark.parametrize(
    "values, n, mats", list(tier_cases()), ids=["pm1-n14", "pm1-n15", "pm2-n10", "pm2-n11"]
)
def test_float_tier_matches_the_object_kernel_at_its_edge(values, n, mats):
    scale, support = _integer_support(pm(values))
    assert scale == 1
    # Step 0 runs in float64; only the last step of n = 15 (+-1) and of
    # n = 11 (|entry| <= 2) runs in int64.
    assert support.dtype == np.float64
    assert step_dtypes(max(values), n)[-1] == (np.float64 if n in (14, 10) else np.int64)
    idx = np.searchsorted(values, mats)
    got = _gather_dets(support, idx)
    assert got.dtype == np.int64
    want = object_dets(mats)
    assert got.tolist() == want
    assert _batch_int_det(mats.astype(object)).tolist() == want
    assert _batch_int_det(mats.astype(np.float64)).tolist() == want
    assert max(map(abs, want)) > 2**20


def hadamard(top, n):
    """A Hadamard matrix of order at least n, times ``top``."""
    return top * (paley_hadamard_12() if top == 2 and n <= 12 else sylvester_hadamard(n))


def switch_cases():
    """(values, n) around every switch of a Bareiss step's dtype.

    +-1 entries switch to int64 at step 13 and to object at step 15,
    |entry| <= 2 at steps 9 and 11; a 10^6 support runs step 0 in float64
    and the rest in object, a 2^31 support every step in object.
    """
    for values, sizes in (
        ((-1, 0, 1), range(13, 22)),
        ((-2, -1, 0, 1, 2), range(9, 14)),
        ((-(10**6), 0, 1, 10**6), range(2, 6)),
        ((-(2**31), 0, 1, 2**31), range(2, 5)),
    ):
        for n in sizes:
            yield values, n


@pytest.mark.parametrize(
    "values, n", list(switch_cases()), ids=[f"top{v[-1]}-n{n}" for v, n in switch_cases()]
)
def test_per_step_kernel_matches_the_object_path(values, n):
    top = values[-1]
    rng = np.random.default_rng(n)
    # Leading blocks of scrambled Hadamard matrices come near the largest
    # determinants; random draws give zero pivots and swaps.
    lead = scrambled(hadamard(top, n), 8, seed=n)[:, :n, :n]
    # Matrix s repeats column 0 in column s (zeroes column 0 for s = 0), so
    # its pivot column dies at step s, in whatever dtype that step runs.
    dead = np.repeat(lead[:1], n, axis=0)
    dead[0, :, 0] = 0
    for s in range(1, n):
        dead[s, :, s] = dead[s, :, 0]
    mats = np.concatenate([
        lead,
        np.array(values)[rng.integers(0, len(values), size=(16, n, n))],
        np.full((1, n, n), top),
        dead,
    ])
    scale, support = _integer_support(pm(values))
    assert scale == 1 and support.dtype == step_dtypes(top, 2)[0]
    got = _gather_dets(support, np.searchsorted(values, mats))
    want = object_dets(mats)
    assert got.tolist() == want
    assert want[-n:] == [0] * n
    assert max(map(abs, want)) >= top**n


def test_an_elimination_converts_only_the_live_block_at_most_twice(monkeypatch):
    mats = scrambled(sylvester_hadamard(32), 5, seed=20)[:, :20, :20]
    want = object_dets(mats)
    calls = []
    convert = sampling._exact_as

    def recording(x, dtype):
        if x.dtype != dtype:
            calls.append((x.shape, x.dtype, dtype))
        return convert(x, dtype)

    monkeypatch.setattr(sampling, "_exact_as", recording)
    assert _batch_int_det(mats).tolist() == want
    f, i, o = np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)
    # The int64 input becomes float64 for step 0; steps 13 and 15 convert
    # the live 7 x 7 and 5 x 5 blocks, the signs and the previous pivots;
    # the determinants come back as int64, under Hadamard's 20^10.
    assert calls == [
        ((20, 20, 5), i, f), ((5,), i, f), ((5,), i, f),
        ((7, 7, 5), f, i), ((5,), f, i), ((5,), f, i),
        ((5, 5, 5), i, o), ((5,), i, o), ((5,), i, o),
        ((5,), o, i),
    ]


def test_batch_determinants_on_object_dtype():
    big = 10 ** 12
    mats = np.array(
        [[[big, 1], [1, big]], [[0, big], [big, 0]]], dtype=object
    )
    assert _batch_int_det(mats).tolist() == [big * big - 1, -big * big]


# -- exhaustive averages ---------------------------------------------------


def test_exhaustive_rademacher_values():
    assert exhaustive_moment(RADEMACHER, 2, 2) == 2
    assert exhaustive_moment(RADEMACHER, 4, 2) == 8
    assert exhaustive_moment(RADEMACHER, 4, 3) == 96
    assert exhaustive_moment(RADEMACHER, 6, 2) == 32


def test_exhaustive_respects_probabilities():
    # Entries -1 w.p. 2/3 and 2 w.p. 1/3 have mean 0 and variance 2, so
    # E[det^2] for n = 2 is 2 * m2^2 = 8.
    dist = DistributionSpec.discrete(
        [Fraction(-1), Fraction(2)], [Fraction(2, 3), Fraction(1, 3)]
    )
    assert exhaustive_moment(dist, 2, 2) == 8


def test_exhaustive_fractional_support():
    dist = DistributionSpec.discrete(
        [Fraction(-1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]
    )
    # Scaling Rademacher entries by 1/2 scales det^2 for n = 2 by (1/2)^4.
    assert exhaustive_moment(dist, 2, 2) == Fraction(2, 16)


def test_exhaustive_degenerate_support():
    dist = DistributionSpec.discrete([Fraction(3)], [Fraction(1)])
    assert exhaustive_moment(dist, 2, 2) == 0
    assert exhaustive_moment(dist, 2, 1) == 9


def test_exhaustive_needs_finite_support():
    with pytest.raises(ValueError):
        exhaustive_moment(NORMAL, 2, 2)


def test_exhaustive_budget_refusal():
    with pytest.raises(BudgetExceededError):
        exhaustive_moment(RADEMACHER, 2, 4, budget=100)


def test_exhaustive_default_budget_counts_matrices():
    # The budget counts s^(n^2) matrices, not sets of rows: Rademacher n = 5
    # needs 2^25 and stays refused at the default 10^6.
    with pytest.raises(BudgetExceededError) as err:
        exhaustive_moment(RADEMACHER, 2, 5)
    assert err.value.required == 2**25
    assert err.value.budget == sampling.DEFAULT_EXHAUSTIVE_BUDGET == 10**6


def test_exhaustive_odd_moments_vanish_without_determinants(monkeypatch):
    # Swapping two i.i.d. rows negates det^k for odd k, so from n = 2 the
    # moment is 0 and no determinant is taken.
    def refuse(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(sampling, "_gather_dets", refuse)
    for dist, _ in EXHAUSTIVE_CASES.values():
        for k, n in ((1, 2), (3, 2), (5, 3), (3, 4)):
            if len(dist.values) ** (n * n) <= sampling.DEFAULT_EXHAUSTIVE_BUDGET:
                assert exhaustive_moment(dist, k, n) == 0, (dist, k, n)
    with pytest.raises(BudgetExceededError):
        exhaustive_moment(RADEMACHER, 3, 5)


def test_mc_budget_refusal_happens_before_any_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(sampling, "map_ranges", no_sampling)
    with pytest.raises(BudgetExceededError) as err:
        mc_estimate(RADEMACHER, 2, 8, samples=10**9)
    assert err.value.required == 10**9
    assert err.value.budget == sampling.DEFAULT_MC_BUDGET == 10**8
    with pytest.raises(BudgetExceededError):
        mc_estimate(RADEMACHER, 2, 2, samples=101, budget=100)


# Each entry point that takes k and n, and whether its k is checked (the
# symbolic builders take only n; the Gaussian product form has its own k).
KN_CALLS = {
    "oracle": (lambda k, n: tables.oracle_moment(k, n), True),
    "exhaustive": (lambda k, n: exhaustive_moment(RADEMACHER, k, n), True),
    "mc": (lambda k, n: mc_estimate(RADEMACHER, k, n, samples=10), True),
    "target-normal": (lambda k, n: exact_moment_target(NORMAL, k, n), True),
    "target-finite": (lambda k, n: exact_moment_target(RADEMACHER, k, n), True),
    "second": (lambda k, n: second_moment(n), False),
    "fourth": (lambda k, n: fourth_moment(n), False),
    "sixth": (lambda k, n: sixth_moment_zero_mean(n), False),
    "gaussian": (lambda k, n: gaussian_det_moment(2, n), False),
}


@pytest.mark.parametrize("name", list(KN_CALLS))
def test_library_refuses_k_and_n_in_the_cli_wording(name):
    call, checks_k = KN_CALLS[name]
    if checks_k:
        with pytest.raises(ValueError, match="^k must be at least 1$"):
            call(0, 2)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        call(2, -1)


# Each budgeted entry point: a call taking the budget, what it counts, its
# default budget and the message before the budget.
BUDGET_CALLS = {
    "oracle": (
        lambda budget: tables.oracle_moment(4, 7, budget=budget),
        381_024_000, tables.DEFAULT_BUDGET,
        "table enumeration for k=4, n=7 needs 381024000 weight evaluations",
    ),
    "exhaustive": (
        lambda budget: exhaustive_moment(RADEMACHER, 2, 5, budget=budget),
        2**25, sampling.DEFAULT_EXHAUSTIVE_BUDGET,
        "exhaustive average for n=5 needs 33554432 matrices",
    ),
    "mc": (
        lambda budget: mc_estimate(RADEMACHER, 2, 8, samples=10**9, budget=budget),
        10**9, sampling.DEFAULT_MC_BUDGET,
        "Monte-Carlo estimate for k=2, n=8 needs 1000000000 samples",
    ),
}


@pytest.mark.parametrize("name", list(BUDGET_CALLS))
def test_library_budget_refusals_keep_their_unit_and_default(name):
    call, required, default, what = BUDGET_CALLS[name]
    for budget, want in ((None, default), (1000, 1000)):
        with pytest.raises(BudgetExceededError) as err:
            call(budget)
        assert (err.value.required, err.value.budget) == (required, want)
        assert str(err.value) == f"{what}, over the budget of {want}"


def test_exhaustive_agrees_with_symbolic_targets():
    for k, n in ((1, 1), (2, 2), (2, 3), (4, 2), (6, 2)):
        target = exact_moment_target(RADEMACHER, k, n)
        assert target is not None
        assert exhaustive_moment(RADEMACHER, k, n) == target


@functools.lru_cache(maxsize=None)
def weighted_dets(case, n):
    """Reference: (probability, Fraction determinant) of every n x n matrix."""
    dist = EXHAUSTIVE_CASES[case][0]
    out = []
    for combo in itertools.product(range(len(dist.values)), repeat=n * n):
        rows = [[dist.values[combo[i * n + j]] for j in range(n)] for i in range(n)]
        weight = Fraction(1)
        for c in combo:
            weight *= dist.probs[c]
        out.append((weight, fraction_det(rows)))
    return out


def discrete(values, probs):
    return DistributionSpec.discrete(
        [Fraction(v) for v in values], [Fraction(p) for p in probs]
    )


EXHAUSTIVE_CASES = {
    "rademacher": (RADEMACHER, [(k, n) for k in (1, 2, 3, 4, 5) for n in (0, 1, 2, 3)]),
    "uniform-3": (discrete(["-1", "0", "1"], ["1/3"] * 3), [(2, 2), (3, 2), (4, 2)]),
    "non-uniform": (
        discrete(["-1", "0", "1"], ["1/4", "1/2", "1/4"]),
        [(1, 2), (2, 2), (4, 2), (3, 3), (4, 3)],
    ),
    "lopsided": (discrete(["0", "1"], ["1/3", "2/3"]), [(2, 3), (3, 3), (4, 1)]),
    "fractional": (
        discrete(["-1/2", "1/3", "5/7"], ["1/6", "1/2", "1/3"]),
        [(2, 2), (3, 2), (4, 1)],
    ),
    # A scale of about 10^12 leaves the int64 range: the object path.
    "object": (
        discrete(["-1/1000003", "1/999983"], ["1/3", "2/3"]),
        [(2, 2), (6, 3)],
    ),
    # A common denominator of 1000003 puts the weights past int64 even at
    # n = 2 (1000003^4 > 2^63): the object weight sum.
    "object-weights": (
        discrete(["-1", "2"], ["1/1000003", "1000002/1000003"]),
        [(2, 2), (4, 3)],
    ),
}


@pytest.mark.parametrize("block", [None, 7, 1])
@pytest.mark.parametrize("case", list(EXHAUSTIVE_CASES))
def test_exhaustive_matches_per_matrix_loop(case, block, monkeypatch):
    # A block size of 7 puts block boundaries inside every enumeration; at
    # 1, every set is a block of its own.
    if block is not None:
        monkeypatch.setattr(sampling, "BLOCK_SIZE", block)
    dist, sizes = EXHAUSTIVE_CASES[case]
    for k, n in sizes:
        want = sum((w * d**k for w, d in weighted_dets(case, n)), Fraction(0))
        assert exhaustive_moment(dist, k, n) == want, (k, n)


def test_exhaustive_object_case_leaves_int64():
    # Cleared of denominators, the "object" support is (-999983, 1000003):
    # float64 at step 0, object from step 1.
    assert not int64_safe(3, 1000003)
    assert step_dtypes(1000003, 3) == [np.float64, object]


# -- symbolic targets ------------------------------------------------------


def test_targets_worked_by_hand():
    assert exact_moment_target(RADEMACHER, 2, 3) == 6
    assert exact_moment_target(RADEMACHER, 4, 3) == 96
    assert exact_moment_target(NORMAL, 6, 2) == 720
    assert exact_moment_target(NORMAL, 8, 3) == gaussian_det_moment(8, 3)


def polynomial_target(dist, k, n):
    """E[det^k] the old way: build the closed-form polynomial, then evaluate."""
    moments = exact_moments(dist, 6)
    rest = {r: v for r, v in moments.items() if r >= 2}
    builders = {
        2: second_moment,
        4: lambda n: central_to_raw(fourth_moment(n)),
        6: sixth_moment_zero_mean,
    }
    return builders[k](n).evaluate(rest, moments[1])


def target_cases():
    """(law, k) for every law here: k = 2 and 4, and k = 6 when centred."""
    for dist in [NORMAL] + [dist for dist, _ in EXHAUSTIVE_CASES.values()]:
        centred = exact_moments(dist, 1)[1] == 0
        for k in (2, 4, 6) if centred else (2, 4):
            yield dist, k


def test_normal_targets_equal_the_polynomials():
    # Numbers equal symbols: the Gaussian product form, and the closed forms
    # run on a law's exact moments, give the polynomial path's value.
    for dist, k in target_cases():
        for n in range(11):
            want = polynomial_target(dist, k, n)
            assert exact_moment_target(dist, k, n) == want, (dist, k, n)
    fractional = EXHAUSTIVE_CASES["fractional"][0]
    non_uniform = EXHAUSTIVE_CASES["non-uniform"][0]
    assert exact_moment_target(fractional, 4, 30) == polynomial_target(fractional, 4, 30)
    assert exact_moment_target(non_uniform, 6, 30) == polynomial_target(non_uniform, 6, 30)


def test_normal_targets_build_no_polynomial(monkeypatch):
    def refuse(*args):
        raise AssertionError("a numeric target needs no polynomial")

    monkeypatch.setattr(MomentPolynomial, "__init__", refuse)
    monkeypatch.setattr(MomentPolynomial, "_make", classmethod(refuse))
    for k in (2, 4, 6):
        assert exact_moment_target(NORMAL, k, 24) == gaussian_det_moment(k, 24)
    for dist, k in target_cases():
        assert isinstance(exact_moment_target(dist, k, 24), Fraction), (dist, k)


def test_targets_unknown_cases_return_none():
    # k = 6 with a nonzero mean has no stored closed form; an odd k at
    # n >= 2 is 0, since a row swap negates det^k.
    lopsided = DistributionSpec.discrete(
        [Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert exact_moment_target(RADEMACHER, 3, 2) == 0
    assert exact_moment_target(lopsided, 6, 2) is None
    assert exact_moment_target(lopsided, 4, 2) is not None


def test_first_power_target_is_determinant_of_the_mean_matrix():
    lopsided = DistributionSpec.discrete(
        [Fraction(0), Fraction(1)], [Fraction(1, 2), Fraction(1, 2)]
    )
    assert exact_moment_target(lopsided, 1, 1) == Fraction(1, 2)
    assert exact_moment_target(lopsided, 1, 3) == 0


def direct_moment(dist, k, n):
    """E[det^k] summed over every n x n matrix over the law's support."""
    total = Fraction(0)
    for cells in itertools.product(list(zip(dist.values, dist.probs)), repeat=n * n):
        rows = [[v for v, _ in cells[i * n:(i + 1) * n]] for i in range(n)]
        total += math.prod(p for _, p in cells) * permanent_style_det(rows) ** k
    return total


@pytest.mark.parametrize("dist", [
    RADEMACHER,
    DistributionSpec.discrete([0, 1], [Fraction(1, 2)] * 2),
    DistributionSpec.discrete([-1, 0, 2], [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
], ids=["pm1", "0,1", "-1,0,2"])
def test_targets_for_odd_k_and_n_1_equal_the_exhaustive_average(dist):
    # At n = 1, E[det^k] is the entry moment m_k; an odd k at n >= 2 gives 0.
    for k in range(1, 10):
        for n in (1, 2, 3):
            if k % 2 or n == 1:
                want = exhaustive_moment(dist, k, n)
                assert exact_moment_target(dist, k, n) == want, (k, n)
                if n <= 2:
                    assert want == direct_moment(dist, k, n), (k, n)


def test_normal_targets_for_odd_k_and_n_1():
    assert [exact_moment_target(NORMAL, k, 1) for k in range(1, 9)] == [
        0, 1, 0, 3, 0, 15, 0, 105
    ]
    assert [exact_moment_target(NORMAL, k, 4) for k in (1, 3, 5, 7)] == [0] * 4


# -- Monte-Carlo -----------------------------------------------------------


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of every process pool `mc_estimate` starts.

    The CPU count reads as 8, so a pool gets the workers asked for.
    """
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    starts = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return starts


def bits(report):
    return report.estimate.hex(), report.std_error.hex()


def test_kahan_sum_is_exact_on_ints():
    total = sampling._kahan_sum([10**30, 1, -(10**30)])
    assert total == 1 and type(total) is int


@settings(max_examples=80)
@given(st.lists(st.floats(), min_size=1, max_size=20))
def test_kahan_sum_on_floats_is_the_float_algorithm(values):
    total = comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    assert sampling._kahan_sum(values).hex() == total.hex()


def test_a_normal_draw_stops_at_its_first_overflowing_block(monkeypatch):
    # Sum det^12 passes float64 in block 0 at n = 60; the other 19 blocks
    # could not make the merged sums finite again.
    drawn = []
    block_rng = sampling._block_rng

    def recording(seed, block):
        drawn.append(block)
        return block_rng(seed, block)

    monkeypatch.setattr(sampling, "_block_rng", recording)
    with pytest.raises(OverflowError, match="overflow float64"):
        mc_estimate(NORMAL, 6, 60, samples=20 * sampling.BLOCK_SIZE, workers=1)
    assert drawn == [0]


# More than one block, so a pool has blocks to split.
POOLED_SAMPLES = 2 * sampling.BLOCK_SIZE + 500


def test_mc_is_reproducible_and_worker_independent(monkeypatch, pool_starts):
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    a = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11)
    b = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11)
    assert pool_starts == []
    c = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11, workers=3)
    assert pool_starts == [3]
    assert bits(a) == bits(b) == bits(c)


def test_a_serial_draw_reports_progress_after_every_block():
    seen = []
    mc_estimate(RADEMACHER, 2, 3, samples=100 * sampling.BLOCK_SIZE, seed=0,
                workers=1, progress=lambda done, total: seen.append((done, total)))
    assert seen == [(b, 100) for b in range(1, 101)]


@pytest.mark.parametrize(
    "dist, job", [(NORMAL, "_normal_blocks"), (RADEMACHER, "_discrete_blocks")]
)
def test_a_pooled_draw_on_one_cpu_is_one_call_that_reports_every_block(
    monkeypatch, inline_pool, dist, job
):
    samples = 10 * sampling.BLOCK_SIZE
    serial = mc_estimate(dist, 2, 4, samples=samples, seed=2)
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    starts = inline_pool()
    calls = []
    draw = getattr(sampling, job)

    def recording(shared, lo, hi, progress=None):
        calls.append((lo, hi))
        return draw(shared, lo, hi, progress)

    monkeypatch.setattr(sampling, job, recording)
    seen = []
    pooled = mc_estimate(dist, 2, 4, samples=samples, seed=2, workers=2,
                         progress=lambda done, total: seen.append((done, total)))
    assert bits(pooled) == bits(serial)
    assert starts == [] and calls == [(0, 10)]
    assert seen == [(b, 10) for b in range(1, 11)]


def test_mc_seed_changes_the_draw():
    a = mc_estimate(RADEMACHER, 2, 3, samples=2000, seed=0)
    b = mc_estimate(RADEMACHER, 2, 3, samples=2000, seed=1)
    assert a.estimate != b.estimate


def test_mc_normal_is_reproducible_and_worker_independent(monkeypatch, pool_starts):
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    a = mc_estimate(NORMAL, 2, 2, samples=POOLED_SAMPLES, seed=4)
    b = mc_estimate(NORMAL, 2, 2, samples=POOLED_SAMPLES, seed=4, workers=2)
    assert pool_starts == [2]
    assert bits(a) == bits(b)


def test_mc_pools_only_past_the_break_even(pool_starts):
    # 15 blocks at n = 8 (31.5M units of samples * n^3) run faster serially,
    # 16 blocks (33.6M) reach the break-even.  A draw through the determinant
    # table follows the same rule: 10^6 samples at n = 3 (27M) stay serial,
    # 1.2x10^6 (32.4M) pool.
    mc_estimate(RADEMACHER, 2, 8, samples=15 * sampling.BLOCK_SIZE, seed=0, workers=2)
    mc_estimate(RADEMACHER, 2, 3, samples=10**6, seed=0, workers=2)
    assert pool_starts == []
    mc_estimate(RADEMACHER, 2, 8, samples=16 * sampling.BLOCK_SIZE, seed=0, workers=2)
    mc_estimate(RADEMACHER, 2, 3, samples=12 * 10**5, seed=0, workers=2)
    assert pool_starts == [2, 2]


def test_mc_pool_starts_no_more_processes_than_blocks(monkeypatch, inline_pool):
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    starts = inline_pool()
    serial = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11)
    pooled = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11, workers=500)
    # Three blocks, so three processes at most.
    assert starts == [3]
    assert bits(pooled) == bits(serial)


def test_mc_pool_sends_the_law_once_and_only_bounds_per_task(monkeypatch):
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(pool, "_worker_job", None)
    inits, tasks = [], []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers, initializer, initargs):
            inits.append(initargs)
            super().__init__(max_workers, initializer=initializer, initargs=initargs)

        def map(self, fn, jobs):
            jobs = list(jobs)
            tasks.extend(jobs)
            return super().map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    law = discrete(["-1", "0", "1"], ["1/4", "1/2", "1/4"])
    samples = 25 * sampling.BLOCK_SIZE + 7
    serial = mc_estimate(law, 2, 4, samples=samples, seed=5)
    pooled = mc_estimate(law, 2, 4, samples=samples, seed=5, workers=2)
    assert bits(pooled) == bits(serial)
    # 26 blocks in 8 ranges: each task is its two bounds, nothing else.
    assert len(tasks) == 8
    assert all(len(t) == 2 and all(type(b) is int for b in t) for t in tasks)
    assert tasks[0][0] == 0 and tasks[-1][1] == 26
    assert all(a[1] == b[0] for a, b in zip(tasks, tasks[1:]))
    # The support and the cumulative probabilities went once, to the pool.
    [(fn, (*_, support, cum, uniform, table))] = inits
    assert fn is sampling._discrete_blocks
    assert len(support) == len(cum) == 3 and not uniform and table is None


@pytest.mark.parametrize("cpus, want", [(2, [2]), (1, []), (None, [])])
def test_mc_pool_starts_no_more_processes_than_cpus(monkeypatch, inline_pool, cpus, want):
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    starts = inline_pool()
    serial = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11)
    pooled = mc_estimate(RADEMACHER, 2, 2, samples=POOLED_SAMPLES, seed=11, workers=500)
    assert starts == want
    assert bits(pooled) == bits(serial)


def test_determinant_table_only_when_the_draw_is_larger(monkeypatch):
    built = []
    build = sampling._det_table
    monkeypatch.setattr(
        sampling, "_det_table", lambda support, n: built.append(n) or build(support, n)
    )
    # 2^9 = 512 matrices at n = 3; 2^16 at n = 4 pass BLOCK_SIZE.
    a = mc_estimate(RADEMACHER, 2, 3, samples=511, seed=3)
    b = mc_estimate(RADEMACHER, 2, 4, samples=10_000, seed=3)
    assert built == []
    c = mc_estimate(RADEMACHER, 2, 3, samples=512, seed=3)
    assert built == [3]
    assert a.estimate != c.estimate and b.std_error > 0


TABLE_LAWS = {
    "rademacher": RADEMACHER,
    "uniform-3": pm([-1, 0, 1]),
    "non-uniform": discrete(["-1", "0", "1"], ["1/4", "1/2", "1/4"]),
    "lopsided": discrete(["0", "1"], ["1/3", "2/3"]),
    "fractional": discrete(["-1/2", "1/3", "5/7"], ["1/6", "1/2", "1/3"]),
    "single": discrete(["3"], ["1"]),
}


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("law", list(TABLE_LAWS))
def test_determinant_table_matches_the_kernel(monkeypatch, inline_pool, law, pooled):
    # Two blocks, the second one partial; every sum is exact, so the table
    # and the kernel give the same bits, serially or pooled.
    dist = TABLE_LAWS[law]
    samples = sampling.BLOCK_SIZE + 500
    tables = []
    build = sampling._det_table

    def recording(support, n):
        tables.append(n)
        return build(support, n)

    def kernel_only(support, n):
        return None

    monkeypatch.setattr("os.cpu_count", lambda: 4)
    starts = inline_pool()
    workers = 2 if pooled else 1
    if pooled:
        monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    for n in range(4):
        s = len(dist.values)
        for seed in (0, 7, 2024):
            for k in range(1, 7):
                monkeypatch.setattr(sampling, "_det_table", recording)
                fast = mc_estimate(dist, k, n, samples=samples, seed=seed, workers=workers)
                monkeypatch.setattr(sampling, "_det_table", kernel_only)
                slow = mc_estimate(dist, k, n, samples=samples, seed=seed)
                assert bits(fast) == bits(slow), (n, seed, k)
        assert tables.count(n) == (18 if s ** (n * n) <= sampling.BLOCK_SIZE else 0)
    assert starts == ([2] * 4 * 18 if pooled else [])


@pytest.mark.parametrize("pooled", [False, True])
@pytest.mark.parametrize("dist", [NORMAL, RADEMACHER, pm([-1, 0, 1])],
                         ids=["normal", "rademacher", "uniform-3"])
def test_a_draw_at_n_0_is_exactly_one(monkeypatch, inline_pool, dist, pooled):
    # The empty matrix has det 1; a finite law reads it off a determinant
    # table of one matrix with no cells.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    starts = inline_pool()
    if pooled:
        monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    report = mc_estimate(dist, 3, 0, samples=POOLED_SAMPLES, seed=1, workers=2)
    assert (report.estimate, report.std_error, report.exact_target) == (1.0, 0.0, 1)
    assert starts == ([2] if pooled else [])


def test_mc_lands_near_known_targets():
    for dist, k, n, target in (
        (RADEMACHER, 2, 2, 2),
        (RADEMACHER, 4, 2, 8),
        (NORMAL, 2, 2, 2),
    ):
        report = mc_estimate(dist, k, n, samples=20_000, seed=31)
        assert report.exact_target == target
        assert report.within(5.0) is True


def test_mc_degenerate_support_has_zero_error():
    dist = DistributionSpec.discrete([Fraction(2)], [Fraction(1)])
    report = mc_estimate(dist, 2, 2, samples=500, seed=0)
    assert report.estimate == 0.0
    assert report.std_error == 0.0


def test_report_within_is_none_without_target():
    report = EstimateReport(
        estimate=1.0, std_error=0.1, samples=10, seed=0, exact_target=None
    )
    assert report.within(5.0) is None


def test_report_json_shape():
    report = mc_estimate(RADEMACHER, 2, 2, samples=1000, seed=3)
    data = report.to_json_dict()
    assert set(data) == {"estimate", "std_error", "samples", "seed", "exact_target"}
    assert data["samples"] == 1000
    assert data["exact_target"] == "2"
    no_target = EstimateReport(1.0, 0.1, 10, 0, None).to_json_dict()
    assert "exact_target" not in no_target


@pytest.mark.parametrize("workers", [1, 2])
def test_seeded_discrete_estimates_are_pinned(monkeypatch, pool_starts, workers):
    # Recorded before the determinant kernel was vectorised: the draw and
    # the exact sums must not change, serially or pooled.
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    lopsided = DistributionSpec.discrete(
        [Fraction(-1), Fraction(0), Fraction(1, 2)],
        [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)],
    )
    for dist, k, n, samples, seed, estimate, std_error in (
        (RADEMACHER, 4, 8, 9000, 3, 12719426342.456888, 1171080117.996353),
        (RADEMACHER, 2, 13, 5000, 1, 6169878226.5344, 315489353.9728115),
        (lopsided, 3, 6, 9000, 5, 0.32814088270399305, 0.14607261566678298),
    ):
        report = mc_estimate(dist, k, n, samples=samples, seed=seed, workers=workers)
        assert (report.estimate, report.std_error) == (estimate, std_error)
    assert pool_starts == ([workers] * 3 if workers > 1 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_seeded_normal_estimates_are_pinned(monkeypatch, pool_starts, workers):
    # Recorded before the blocks were drawn in parts: the draw and the
    # per-block sums must not change, serially or pooled.
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    for k, n, samples, seed, estimate, std_error in (
        (2, 8, 9000, 3, 39022.67121817876, 2426.472309438589),
        (6, 8, POOLED_SAMPLES, 4, 2.228903164764284e18, 1.8299205397005284e18),
        (2, 60, sampling.BLOCK_SIZE + 7, 1, 5.107039386422067e81, 4.6322483591303775e80),
    ):
        report = mc_estimate(NORMAL, k, n, samples=samples, seed=seed, workers=workers)
        assert (report.estimate, report.std_error) == (estimate, std_error)
    assert pool_starts == ([workers] * 3 if workers > 1 else [])


@pytest.mark.parametrize("workers", [1, 2])
def test_seeded_object_tier_estimates_are_pinned(monkeypatch, pool_starts, workers):
    # Recorded when these draws ran every Bareiss step on Python ints; +-1
    # entries at n = 18 now run 13 steps in float64 and 2 in int64, the 10^6
    # support its first step in float64.  The bits must not change.
    monkeypatch.setattr(sampling, "_PARALLEL_THRESHOLD", 0)
    for dist, k, n, seed, estimate, std_error in (
        (RADEMACHER, 2, 18, 6, 5858324685033343.0, 380609343472557.5),
        (pm([-(10**6), 1, 10**6]), 2, 5, 8, 1.5475215127780346e61, 5.432896229407427e59),
    ):
        report = mc_estimate(dist, k, n, samples=sampling.BLOCK_SIZE + 100, seed=seed,
                             workers=workers)
        assert (report.estimate, report.std_error) == (estimate, std_error)
    assert pool_starts == ([workers] * 2 if workers > 1 else [])


def run_python(code):
    """The stdout of ``code`` run in a fresh interpreter on this detmom."""
    src = Path(sampling.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # `closed` and `series` draw nothing, so their start-up must not pay
    # for numpy.random; `mc_estimate` imports it when it draws.
    assert run_python("""
        import sys
        import detmom.cli
        print("numpy.random" in sys.modules)
    """).split() == ["False"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="only forked workers inherit this process's modules")
def test_pooled_workers_start_with_numpy_random_imported():
    # mc_estimate imports numpy.random before `map_ranges` forks, so a pool
    # worker finds it loaded instead of importing it again.
    assert run_python("""
        import os, sys
        from detmom import pool, sampling
        assert "numpy.random" not in sys.modules
        sampling._PARALLEL_THRESHOLD = 0
        os.cpu_count = lambda: 2
        draw = sampling._discrete_blocks

        def checked(shared, lo, hi, progress=None):
            if pool._worker_job is None:
                raise RuntimeError("the draw ran in the calling process")
            if "numpy.random" not in sys.modules:
                raise RuntimeError("a pool worker started without numpy.random")
            return draw(shared, lo, hi, progress)

        sampling._discrete_blocks = checked
        law = sampling.DistributionSpec.rademacher()
        report = sampling.mc_estimate(law, 2, 4, samples=3 * sampling.BLOCK_SIZE,
                                      seed=1, workers=2)
        print(report.samples)
    """).split() == [str(3 * sampling.BLOCK_SIZE)]


def test_a_block_is_drawn_in_parts_of_about_part_entries():
    assert sampling._parts(sampling.BLOCK_SIZE, 8) == [1024] * 4
    assert sampling._parts(sampling.BLOCK_SIZE, 12) == [455] * 9 + [1]
    assert sampling._parts(500, 60) == [18] * 27 + [14]
    for n in range(4):
        assert sampling._parts(sampling.BLOCK_SIZE, n) == [sampling.BLOCK_SIZE]


# (law, k, n, samples, the dtypes of its Bareiss steps or "table"); the
# cheap paths draw two blocks, the second one partial.
PART_CASES = {
    "normal": (NORMAL, 4, 5, sampling.BLOCK_SIZE + 500, None),
    "uniform": (RADEMACHER, 4, 6, 1000, {np.float64}),
    "non-uniform": (discrete(["-1", "0", "1/2"], ["1/4", "1/2", "1/4"]), 3, 5, 1000,
                    {np.float64}),
    "table": (RADEMACHER, 2, 3, sampling.BLOCK_SIZE + 500, "table"),
    "int64": (pm([-2, -1, 1, 2]), 2, 11, 300, {np.float64, np.int64}),
    "object": (pm([-(10**6), 1, 10**6]), 2, 4, 300, {np.float64, object}),
}


@pytest.mark.parametrize("per_part", [1, 3])
@pytest.mark.parametrize("case", list(PART_CASES))
def test_parts_of_a_block_change_no_bits(monkeypatch, case, per_part):
    dist, k, n, samples, path = PART_CASES[case]
    if path == "table":
        assert len(dist.values) ** (n * n) <= sampling.BLOCK_SIZE
    elif path is not None:
        scale, support = _integer_support(dist)
        assert set(step_dtypes(int(abs(support).max()), n)) == set(map(np.dtype, path))
    whole = mc_estimate(dist, k, n, samples=samples, seed=9)
    monkeypatch.setattr(sampling, "PART_ENTRIES", per_part * n * n)
    assert sampling._parts(500, n)[0] == per_part
    assert bits(mc_estimate(dist, k, n, samples=samples, seed=9)) == bits(whole)


def test_a_normal_block_at_n_60_stays_small_in_memory():
    # A whole block of 4096 normal 60 x 60 matrices is 118 MB of float64.
    tracemalloc.start()
    try:
        mc_estimate(NORMAL, 2, 60, samples=sampling.BLOCK_SIZE, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_normal_overflow_is_an_error_before_the_target(monkeypatch):
    def no_target(*args):
        raise AssertionError("the exact target was built")

    monkeypatch.setattr(sampling, "exact_moment_target", no_target)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="overflow float64"):
            mc_estimate(NORMAL, 6, 60, samples=100, seed=0)


def test_discrete_overflow_is_an_error():
    wide = DistributionSpec.discrete(
        [Fraction(-1000), Fraction(1000)], [Fraction(1, 2), Fraction(1, 2)]
    )
    with pytest.raises(OverflowError, match="overflow float64"):
        mc_estimate(wide, 6, 20, samples=50, seed=0)
