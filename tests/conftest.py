"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest


@pytest.fixture
def inline_pool(monkeypatch):
    """Swap a module's `ProcessPoolExecutor` for one that starts no process.

    ``inline_pool(module)`` installs it and returns the list of the
    ``max_workers`` of every pool the module then asks for; the jobs run
    in this process, in order.
    """

    def install(module) -> list:
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

        monkeypatch.setattr(module, "ProcessPoolExecutor", InlinePool)
        return starts

    return install
