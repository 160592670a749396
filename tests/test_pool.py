"""The one process pool: ranges, order and progress."""

from __future__ import annotations

import pytest

from detmom import pool


def echo(shared, lo, hi):
    return shared, lo, hi


@pytest.mark.parametrize(
    "workers, bounds", [(1, [0, 2, 5, 7, 10]), (2, [0, 1, 2, 3, 5, 6, 7, 8, 10])]
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
