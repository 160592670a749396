"""Brute-force table oracle: signs, column weights, and the orbit sum."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmom.errors import BudgetExceededError
from detmom.poly import (
    Basis,
    MomentPolynomial,
    central_to_raw,
    raw_symbol,
    raw_to_central,
)
from detmom.formulas import fourth_moment, second_moment, sixth_moment_zero_mean
from detmom import pool, tables
from detmom.tables import (
    MarkedRow,
    MarkedTable,
    PermutationTable,
    TableMode,
    oracle_moment,
    permutation_sign,
    table_count,
)


def raw_mono(powers, coef=1):
    return MomentPolynomial.monomial(coef, powers, Basis.RAW)


def central_mono(powers, coef=1):
    return MomentPolynomial.monomial(coef, powers, Basis.CENTRAL)


def inversion_parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1


# -- permutation signs -----------------------------------------------------


def test_sign_of_small_permutations():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1
    assert permutation_sign(()) == 1


def test_sign_matches_inversion_count_exhaustively():
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            assert permutation_sign(perm) == inversion_parity(perm)


@given(st.permutations(list(range(7))))
def test_sign_is_multiplicative_under_composition(perm):
    rotated = tuple(perm[(i + 1) % 7] for i in range(7))
    composed = tuple(rotated[perm[i]] for i in range(7))
    assert permutation_sign(composed) == permutation_sign(perm) * permutation_sign(
        rotated
    )


# -- a 4x9 table worked by hand --------------------------------------------

PLAIN_4x9 = PermutationTable(
    (
        (0, 5, 2, 8, 4, 1, 6, 7, 3),
        (2, 1, 0, 8, 3, 5, 6, 4, 7),
        (3, 5, 0, 8, 2, 1, 6, 4, 7),
        (1, 2, 0, 4, 3, 5, 6, 7, 8),
    )
)


def test_plain_4x9_table_sign():
    # Row parities are +, +, +, -.
    assert [permutation_sign(r) for r in PLAIN_4x9.rows] == [1, 1, 1, -1]
    assert PLAIN_4x9.sign() == -1


def test_plain_4x9_table_weight():
    # Column by column: m1^4, m1^2 m2, m1 m3, m1 m3, m1^2 m2, m2^2, m4,
    # m2^2, m1^2 m2; the product collects to m1^12 m2^7 m3^2 m4.
    assert PLAIN_4x9.weight() == raw_mono({1: 12, 2: 7, 3: 2, 4: 1})


def test_single_column_weights():
    assert PermutationTable(((0,), (0,), (0,), (0,))).weight() == raw_mono({4: 1})
    assert PermutationTable(((0,), (0,))).weight() == raw_mono({2: 1})
    assert PermutationTable(((0,),)).weight() == raw_mono({1: 1})


def test_rows_must_be_permutations():
    with pytest.raises(ValueError):
        PermutationTable(((0, 0),))
    with pytest.raises(ValueError):
        PermutationTable(((0, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="^a table needs at least one row$"):
        PermutationTable(())


def test_k_is_the_number_of_rows():
    assert PermutationTable(((0, 1), (1, 0))).k == 2
    assert MarkedTable((MarkedRow((0, 1), mark=0), MarkedRow((1, 0)), MarkedRow((0, 1)))).k == 3
    assert MarkedTable((MarkedRow((0,), mark=0),)).k == 1


# -- marked 4x9 tables worked by hand --------------------------------------

MARKED_A = MarkedTable(
    (
        MarkedRow((0, 5, 2, 3, 4, 1, 6, 7, 8), mark=1),
        MarkedRow((2, 1, 0, 8, 3, 5, 6, 4, 7)),
        MarkedRow((0, 5, 2, 8, 3, 1, 6, 4, 7), mark=1),
        MarkedRow((2, 1, 0, 3, 4, 5, 6, 7, 8)),
    )
)

MARKED_B = MarkedTable(
    (
        MarkedRow((0, 1, 2, 3, 4, 5, 6, 7, 8), mark=0),
        MarkedRow((2, 1, 0, 8, 3, 5, 6, 4, 7), mark=0),
        MarkedRow((1, 2, 0, 8, 3, 5, 6, 4, 7), mark=1),
        MarkedRow((1, 0, 2, 3, 4, 5, 6, 7, 8), mark=1),
    )
)


def test_marked_4x9_tables_worked_by_hand():
    assert MARKED_A.sign() == 1
    assert MARKED_A.weight() == central_mono({1: 2, 2: 15, 4: 1})
    assert MARKED_B.sign() == 1
    assert MARKED_B.weight() == central_mono({1: 4, 2: 12, 4: 2})


def test_unmarked_singleton_kills_the_weight():
    # Column 0 pairs a marked entry with a lone unmarked one.
    t = MarkedTable((MarkedRow((0, 1), mark=0), MarkedRow((1, 0))))
    assert t.weight().is_zero


def test_mark_position_must_be_in_range():
    with pytest.raises(ValueError):
        MarkedRow((0, 1), mark=2)


# -- pinned-first-row tables for k = 2, n = 3 ------------------------------


def test_second_moment_tables_with_pinned_first_row():
    # Six tables; fixed points of the second row give m2 columns, the rest
    # split into singleton pairs.  Their signed sum times 3! is f_2(3).
    expected = {
        (0, 1, 2): (1, raw_mono({2: 3})),
        (0, 2, 1): (-1, raw_mono({1: 4, 2: 1})),
        (2, 1, 0): (-1, raw_mono({1: 4, 2: 1})),
        (1, 0, 2): (-1, raw_mono({1: 4, 2: 1})),
        (1, 2, 0): (1, raw_mono({1: 6})),
        (2, 0, 1): (1, raw_mono({1: 6})),
    }
    total = MomentPolynomial.zero(Basis.RAW)
    for second, (sign, weight) in expected.items():
        t = PermutationTable(((0, 1, 2), second))
        assert t.sign() == sign
        assert t.weight() == weight
        total = total + sign * weight
    assert 6 * total == second_moment(3)


def test_marked_tables_for_k2_n2_enumerated():
    # 36 candidate tables, six with nonzero weight; the signed sum is the
    # second moment rewritten in the mean and central moments.
    rows = [
        MarkedRow(p, mark)
        for p in itertools.permutations(range(2))
        for mark in (None, 0, 1)
    ]
    total = MomentPolynomial.zero(Basis.CENTRAL)
    alive = 0
    for r1, r2 in itertools.product(rows, repeat=2):
        t = MarkedTable((r1, r2))
        w = t.weight()
        if not w.is_zero:
            alive += 1
            total = total + t.sign() * w
    assert alive == 6
    assert total == raw_to_central(second_moment(2))
    assert total == central_mono({2: 2}, 2) + central_mono({1: 2, 2: 1}, 4)


# -- enumeration counts ----------------------------------------------------


def test_table_counts():
    # p(9) = 30 cycle types; q(4) = 1 + 1 + 2 + 3 + 5 = 12 marked orbits.
    assert table_count(2, 9, TableMode.PLAIN) == 30
    assert table_count(3, 4, TableMode.PLAIN) == 5 * 24**2
    assert table_count(4, 7, TableMode.PLAIN) == 15 * 5040**2
    assert table_count(3, 4, TableMode.MARKED) == 12 * 120**2
    assert table_count(4, 2, TableMode.MARKED) == 3 * 4 * 6**2
    assert table_count(1, 0, TableMode.MARKED) == 1


@pytest.mark.parametrize("mode", list(TableMode))
def test_orbit_sizes_sum_to_every_row(mode):
    for n in range(9):
        options = tables._orbit_options(n, mode)
        rows = factorial(n) * (1 if mode is TableMode.PLAIN else n + 1)
        assert sum(abs(signed) for _, signed in options) == rows
        assert len(options) == table_count(1, n, mode)


@pytest.mark.parametrize(
    "k, n, mode",
    [
        (2, 5, TableMode.PLAIN),
        (3, 3, TableMode.PLAIN),
        (4, 3, TableMode.PLAIN),
        (3, 2, TableMode.MARKED),
        (3, 3, TableMode.MARKED),
        (4, 2, TableMode.MARKED),
    ],
)
def test_table_count_is_the_number_of_tables_visited(k, n, mode):
    seen = []
    oracle_moment(k, n, mode=mode,
                  progress=lambda done, total: seen.append((done, total)))
    count = table_count(k, n, mode)
    assert seen[-1] == (count, count)


# -- oracle against the closed forms ---------------------------------------


def test_oracle_matches_second_moment():
    for n in range(6):
        assert oracle_moment(2, n) == second_moment(n)


def test_oracle_matches_fourth_moment():
    # Up to p(6) * 6!^2 = 5,702,400 tables.
    for n in range(7):
        assert oracle_moment(4, n) == central_to_raw(fourth_moment(n))


def test_oracle_matches_sixth_moment_once_centered():
    # Up to p(4) * 4!^4 = 1,658,880 tables.
    for n in range(5):
        assert oracle_moment(6, n).substitute(1, 0) == sixth_moment_zero_mean(n)


def test_marked_oracle_agrees_with_plain_after_conversion():
    for k, n in ((2, 2), (2, 3), (4, 2), (3, 4)):
        assert central_to_raw(oracle_moment(k, n, mode=TableMode.MARKED)) == (
            oracle_moment(k, n)
        )


def test_marked_oracle_matches_fourth_moment_directly():
    assert oracle_moment(4, 2, mode=TableMode.MARKED) == fourth_moment(2)
    assert oracle_moment(4, 3, mode=TableMode.MARKED) == fourth_moment(3)


def test_odd_powers():
    assert oracle_moment(1, 1) == raw_symbol(1)
    assert oracle_moment(1, 1, mode=TableMode.MARKED) == central_mono({1: 1})
    assert oracle_moment(1, 2).is_zero
    assert oracle_moment(3, 1) == raw_symbol(3)
    assert oracle_moment(3, 2).is_zero
    # E[det A] = 0 for n >= 2: the permutation signs cancel.
    for n in range(2, 6):
        for mode in TableMode:
            assert oracle_moment(1, n, mode=mode).is_zero


def test_zero_dimensional_determinant():
    assert oracle_moment(2, 0) == MomentPolynomial.constant(1, Basis.RAW)
    for mode in TableMode:
        basis = Basis.RAW if mode is TableMode.PLAIN else Basis.CENTRAL
        for k in range(1, 7):
            got = oracle_moment(k, 0, mode=mode)
            assert got == MomentPolynomial.constant(1, basis)


# -- budget and parallelism ------------------------------------------------


def test_budget_refusal_happens_before_any_work():
    with pytest.raises(BudgetExceededError) as err:
        oracle_moment(4, 6, budget=1000)
    # p(6) = 11 orbits of the second row, 6!^2 choices of the other two.
    assert err.value.required == 11 * 720**2
    assert err.value.budget == 1000
    assert "budget" in str(err.value)


def test_default_budget_refuses_k4_n7_before_any_work(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(tables, "_axes", no_enumeration)
    with pytest.raises(BudgetExceededError) as err:
        oracle_moment(4, 7)
    assert err.value.required == 381_024_000
    assert err.value.budget == tables.DEFAULT_BUDGET == 10**8


def test_worker_partitioning_is_deterministic(monkeypatch):
    monkeypatch.setattr(tables, "_PARALLEL_THRESHOLD", 10)
    # p(6) = 11 tables, so both pools split the index range.
    assert oracle_moment(2, 6, workers=3) == second_moment(6)
    assert oracle_moment(2, 6, workers=2) == second_moment(6)
    assert oracle_moment(4, 2, mode=TableMode.MARKED, workers=3) == fourth_moment(2)


def test_pool_starts_no_more_processes_than_chunks(monkeypatch, inline_pool):
    monkeypatch.setattr(tables, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(pool, "_worker_job", None)
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    starts = inline_pool()
    # p(4) = 5 tables make 5 chunks, whatever the worker count asked for.
    assert oracle_moment(2, 4, workers=500) == second_moment(4)
    assert starts == [5]


@pytest.mark.parametrize("cpus, want", [(2, [2]), (1, []), (None, [])])
def test_pool_starts_no_more_processes_than_cpus(monkeypatch, inline_pool, cpus, want):
    monkeypatch.setattr(tables, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr(pool, "_worker_job", None)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    starts = inline_pool()
    # p(6) = 11 tables: a pool of 2 takes 8 chunks.
    assert oracle_moment(2, 6, workers=500) == second_moment(6)
    assert starts == want


@pytest.mark.parametrize("k, n, mode", [(4, 3, TableMode.PLAIN), (3, 3, TableMode.MARKED)])
def test_conjugacy_workers_give_the_serial_result(monkeypatch, k, n, mode):
    serial = oracle_moment(k, n, mode=mode)
    monkeypatch.setattr(tables, "_PARALLEL_THRESHOLD", 10)
    seen = []
    pooled = oracle_moment(
        k, n, mode=mode, workers=3,
        progress=lambda done, total: seen.append((done, total)),
    )
    assert pooled == serial
    count = table_count(k, n, mode)
    assert seen[-1] == (count, count)


def test_progress_reports_reach_the_total():
    seen = []
    oracle_moment(2, 3, progress=lambda done, total: seen.append((done, total)))
    # p(3) = 3 orbits of the second row.
    assert seen[-1] == (3, 3)


def test_progress_is_reported_once_per_block(monkeypatch):
    monkeypatch.setattr(tables, "BLOCK_SIZE", 100)
    seen = []
    oracle_moment(4, 3, progress=lambda done, total: seen.append((done, total)))
    # p(3) * 3!^2 = 108 tables: one full block and one of 8.
    assert seen == [(100, 108), (108, 108)]


def test_a_pooled_oracle_on_one_cpu_is_one_call_that_reports_every_block(
    monkeypatch, inline_pool
):
    monkeypatch.setattr(tables, "BLOCK_SIZE", 100)
    serial = oracle_moment(4, 3)
    monkeypatch.setattr(tables, "_PARALLEL_THRESHOLD", 0)
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    starts = inline_pool()
    calls = []
    accumulate = tables._accumulate_range

    def recording(plan, lo, hi, progress=None):
        calls.append((lo, hi))
        return accumulate(plan, lo, hi, progress)

    monkeypatch.setattr(tables, "_accumulate_range", recording)
    seen = []
    pooled = oracle_moment(
        4, 3, workers=2, progress=lambda done, total: seen.append((done, total))
    )
    assert pooled == serial
    assert starts == [] and calls == [(0, 108)]
    # p(3) * 3!^2 = 108 tables: one full block and one of 8.
    assert seen == [(100, 108), (108, 108)]


# -- the block kernel against a pure-Python column-run reference -----------

MARK = -1


def reference_weight(rows, marked):
    """{slot: exponent} of a table's weight, or None when mu_1 = 0 kills it.

    Runs of equal values in each sorted column: a run of marks adds its
    length to slot 0 (m_1), a run of c >= 2 values adds one to slot c, and a
    lone value adds one to slot 0 (plain) or kills the table (marked).
    """
    exp = Counter()
    for column in zip(*rows):
        for value, run in itertools.groupby(sorted(column)):
            c = len(list(run))
            if value == MARK:
                exp[0] += c
            elif c > 1:
                exp[c] += 1
            elif marked:
                return None
            else:
                exp[0] += 1
    return exp


def reference_groups(plan, k, table_ids, marked):
    """Summed signs per (exponent tuple, orbit option) over the given tables."""
    out = Counter()
    for t in table_ids:
        digits = []
        for radix in reversed(plan.radices):
            t, d = divmod(t, radix)
            digits.append(d)
        digits.reverse()
        rows = [
            tuple(int(col[j][d]) for j in range(plan.n))
            for col, d in zip(plan.columns, digits)
        ]
        exp = reference_weight(rows, marked)
        if exp is None:
            continue
        sign = prod(int(signs[digits[i]]) for i, signs in plan.signs)
        out[tuple(exp[c] for c in range(k + 1)), digits[plan.orbit_axis]] += sign
    return {g: s for g, s in out.items() if s}


def kernel_groups(plan, k, lo, hi):
    low = (1 << plan.key_bits) - 1
    out = Counter()
    for group, s in tables._accumulate_range(plan, lo, hi).items():
        out[plan.unpack(group & low), group >> plan.key_bits] += s
    return {g: s for g, s in out.items() if s}


@pytest.mark.parametrize("mode", list(TableMode))
@pytest.mark.parametrize("k", range(1, 7))
def test_block_kernel_matches_the_column_run_reference(monkeypatch, k, mode):
    # Small blocks, so a range crosses block boundaries.
    monkeypatch.setattr(tables, "BLOCK_SIZE", 64)
    rng = random.Random(f"{k}-{mode.value}")
    marked = mode is TableMode.MARKED
    for n in range(6):
        plan = tables._plan(k, n, mode)
        count = prod(plan.radices)
        assert count == table_count(k, n, mode)
        # The first tables (mostly alive in marked mode), a random run,
        # and random single tables.
        start = rng.randrange(count)
        ranges = [(0, min(count, 200)), (start, min(count, start + 200))]
        ranges += [(t, t + 1) for t in (rng.randrange(count) for _ in range(30))]
        for lo, hi in ranges:
            assert kernel_groups(plan, k, lo, hi) == reference_groups(
                plan, k, range(lo, hi), marked
            ), (n, lo, hi)


def reference_oracle(k, n, mode, pin_first_row=False):
    """E[det^k] summed over every table with the reference column rule.

    With ``pin_first_row`` only the tables whose first row is the identity
    are visited.  Permuting the columns of a table by s keeps its weight and
    multiplies its sign by sgn(s)^k, so the full sum is the pinned sum times
    the sum of sgn(s)^k over S_n: n! for even k or n < 2, else 0.
    """
    marks = (None,) if mode is TableMode.PLAIN else (None, *range(n))
    options = [
        (p, tuple(MARK if pos == mark else v for pos, v in enumerate(p)), inversion_parity(p))
        for p in itertools.permutations(range(n))
        for mark in marks
    ]
    first = options
    scale = 1
    if pin_first_row:
        first = [o for o in options if o[0] == tuple(range(n))]
        scale = factorial(n) if k % 2 == 0 or n < 2 else 0
    acc = Counter()
    if scale:
        for combo in itertools.product(first, *[options] * (k - 1)):
            exp = reference_weight([values for _, values, _ in combo], mode is TableMode.MARKED)
            if exp is not None:
                acc[tuple(exp[c] for c in range(9))] += scale * prod(s for _, _, s in combo)
    basis = Basis.RAW if mode is TableMode.PLAIN else Basis.CENTRAL
    return MomentPolynomial(basis, {e: c for e, c in acc.items() if c})


def test_full_and_reduced_enumerations_agree():
    cases = [(2, n, TableMode.PLAIN) for n in (2, 3, 4)]
    cases += [(4, 2, TableMode.PLAIN), (3, 3, TableMode.PLAIN), (3, 3, TableMode.MARKED)]
    cases += [(2, 3, TableMode.MARKED), (4, 2, TableMode.MARKED)]
    for k, n, mode in cases:
        assert reference_oracle(k, n, mode, pin_first_row=True) == (
            reference_oracle(k, n, mode)
        ), (k, n, mode)


@pytest.mark.parametrize(
    "k, n, mode",
    [
        (3, 3, TableMode.PLAIN),
        (3, 4, TableMode.PLAIN),
        (4, 3, TableMode.PLAIN),
        (5, 2, TableMode.PLAIN),
        (6, 2, TableMode.PLAIN),
        (2, 4, TableMode.MARKED),
        (3, 3, TableMode.MARKED),
        (4, 2, TableMode.MARKED),
        (6, 1, TableMode.MARKED),
    ],
)
def test_every_reduction_matches_the_reference_oracle(k, n, mode):
    # The orbit sum of the oracle and the first-row pin of the reference
    # against the sum over every table.
    expected = reference_oracle(k, n, mode)
    assert oracle_moment(k, n, mode=mode) == expected
    assert reference_oracle(k, n, mode, pin_first_row=True) == expected


def _conjugacy_cases():
    for k in range(1, 7):
        for n in range(4 if k >= 5 else 5):
            yield k, n, TableMode.PLAIN
    for k in range(1, 5):
        for n in range(4):
            yield k, n, TableMode.MARKED
    yield 3, 4, TableMode.MARKED


@pytest.mark.parametrize("k, n, mode", list(_conjugacy_cases()))
def test_conjugacy_matches_full_enumeration(k, n, mode):
    # The full sum, taken over the tables with the first row pinned.
    full = reference_oracle(k, n, mode, pin_first_row=True)
    assert oracle_moment(k, n, mode=mode) == full


@pytest.mark.parametrize("mode", list(TableMode))
def test_row_options_are_every_permutation_with_its_sign(mode):
    for n in range(7):
        options = tables._row_options(n, mode)
        marks = (None,) if mode is TableMode.PLAIN else (None, *range(n))
        expected = sorted(
            (tuple(MARK if pos == mark else v for pos, v in enumerate(p)), inversion_parity(p))
            for p in itertools.permutations(range(n))
            for mark in marks
        )
        assert sorted(options) == expected


def test_orbit_weights_past_int64_stay_exact():
    # The largest orbit of S_22, the 21-cycles, has 22!/21 > 2^63 members.
    sizes = [abs(signed) for _, signed in tables._orbit_options(22, TableMode.PLAIN)]
    assert max(sizes) == factorial(22) // 21 > 2**63
    assert oracle_moment(2, 22) == second_moment(22)


def test_kernel_limits_are_refused_before_any_work(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(tables, "_axes", no_enumeration)
    with pytest.raises(ValueError, match="k <= 16"):
        oracle_moment(17, 1)
    # p(40) * 40!^2 tables do not fit a 64-bit index.
    with pytest.raises(ValueError, match="64-bit"):
        oracle_moment(3, 40, budget=10**200)


# -- the decoder and grouped sum shared with the exhaustive average --------


def decode(code, radices):
    """Mixed-radix digits of ``code``, the last radix varying fastest."""
    digits = []
    for radix in reversed(radices):
        code, digit = divmod(code, radix)
        digits.append(digit)
    return digits[::-1]


def test_digits_match_a_pure_python_decoder():
    # One radix, and none: n = 0 is one matrix of no entries, shape (0, 1).
    cases = [(0, 1, ()), (0, 3, (5,))]
    rng = random.Random(3)
    for _ in range(200):
        radices = tuple(rng.randint(1, 7) for _ in range(rng.randint(0, 6)))
        start = rng.randint(0, prod(radices))
        cases.append((start, rng.randint(start, prod(radices)), radices))
    for start, stop, radices in cases:
        got = tables._digits(start, stop, radices)
        assert got.dtype == np.int64
        assert got.shape == (len(radices), stop - start)
        assert got.T.tolist() == [decode(code, radices) for code in range(start, stop)]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_add_grouped_matches_a_dict_loop(dtype):
    rng = random.Random(5)
    big = 2**70 if dtype is object else 2**40
    acc = {3: 1, -1: big}
    want = dict(acc)
    for _ in range(4):
        keys = [rng.choice([-1, 0, 3, big, -big]) for _ in range(50)]
        weights = [rng.randrange(-big, big) for _ in keys]
        tables._add_grouped(
            acc, np.array(keys, dtype=dtype), np.array(weights, dtype=dtype)
        )
        for key, weight in zip(keys, weights):
            want[key] = want.get(key, 0) + weight
    assert acc == want
    assert all(type(key) is int and type(w) is int for key, w in acc.items())
