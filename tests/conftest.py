"""Fixtures shared by the test modules."""

from __future__ import annotations

import concurrent.futures

import pytest


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap `concurrent.futures.ProcessPoolExecutor`, which `pool.map_ranges`
    imports when it starts a pool, for one that starts no process.

    ``inline_pool()`` installs it and returns the list of the
    ``max_workers`` of every pool then asked for; the jobs run in this
    process, in order.
    """

    def install() -> list:
        starts = []

        class InlinePool:
            def __init__(self, max_workers=None, initializer=None, initargs=()):
                starts.append(max_workers)
                if initializer:
                    initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return starts

    return install
