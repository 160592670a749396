"""The one process pool: ranges, order and progress."""

from __future__ import annotations

import pytest

from detmom import pool


def echo(shared, lo, hi, progress=None):
    return shared, lo, hi


def test_map_ranges_returns_contiguous_ranges_in_order(monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(pool, "_worker_job", None)
    seen = []
    parts = pool.map_ranges(
        echo, "shared", 10, 2, lambda done, total: seen.append((done, total))
    )
    bounds = [0, 1, 2, 3, 5, 6, 7, 8, 10]
    assert parts == [("shared", lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert seen == [(hi, 10) for hi in bounds[1:]]


@pytest.mark.parametrize(
    "workers, cpus, count", [(1, 2, 1000), (2, 1, 1000), (2, None, 1000), (2, 2, 1)]
)
def test_one_worker_is_one_call_in_this_process_with_the_progress(
    monkeypatch, inline_pool, workers, cpus, count
):
    # One worker is counted after the caps at the CPU count and at count;
    # the job itself reports after each of its blocks.
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    starts = inline_pool()
    calls = []

    def job(shared, lo, hi, progress=None):
        calls.append((shared, lo, hi, progress))
        return "part"

    def progress(done, total):
        pass

    assert pool.map_ranges(job, "shared", count, workers, progress) == ["part"]
    assert calls == [("shared", 0, count, progress)]
    assert starts == []
