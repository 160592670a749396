"""The one process pool: ranges, order and progress."""

from __future__ import annotations

import pytest

from detmom import pool


def echo(shared, lo, hi):
    return shared, lo, hi


@pytest.mark.parametrize(
    "workers, bounds", [(1, list(range(11))), (2, [0, 1, 2, 3, 5, 6, 7, 8, 10])]
)
def test_map_ranges_returns_contiguous_ranges_in_order(monkeypatch, workers, bounds):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(pool, "_worker_job", None)
    seen = []
    parts = pool.map_ranges(
        echo, "shared", 10, workers, lambda done, total: seen.append((done, total))
    )
    assert parts == [("shared", lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert seen == [(hi, 10) for hi in bounds[1:]]


def test_two_workers_on_one_cpu_run_four_ranges_in_this_process(monkeypatch, inline_pool):
    # A serial fallback of a pooled call keeps its few ranges: a pooled
    # oracle counts tables, far too many to run one at a time.
    monkeypatch.setattr("os.cpu_count", lambda: 1)
    starts = inline_pool(pool)
    parts = pool.map_ranges(echo, "shared", 1000, 2)
    assert starts == []
    assert [(lo, hi) for _, lo, hi in parts] == [(0, 250), (250, 500), (500, 750), (750, 1000)]
