"""One process pool for the oracle and the Monte-Carlo draw."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Optional

# The (fn, shared) of a pool worker process, set once by `_start_worker`.
_worker_job: Optional[tuple[Callable, Any]] = None


def _start_worker(fn: Callable, shared: Any) -> None:
    global _worker_job
    _worker_job = (fn, shared)


def _run_chunk(bounds: tuple[int, int]) -> Any:
    fn, shared = _worker_job
    return fn(shared, *bounds)


def map_ranges(fn, shared, count: int, workers: int, progress=None) -> list:
    """``fn(shared, lo, hi)`` over contiguous ranges that cover ``range(count)``.

    ``workers == 1`` gives one range per item, so ``progress`` comes after
    every item; more give ``min(count, 4 * workers)`` ranges.  count >= 1;
    results come back in index order, and ``progress`` gets (end of the
    range, ``count``) after each.  A pool has at most one process per range
    and per CPU; with one, the ranges run in this process.  The pool
    initializer sends each worker ``fn`` (module-level) and ``shared`` once,
    so a task is two bounds.
    """
    # Decided by the workers asked for, before the CPU cap: a pooled oracle
    # counts tables, too many to run one at a time, even on one CPU.
    serial = workers == 1
    workers = max(1, min(workers, count, os.cpu_count() or 1))
    chunks = count if serial else min(count, 4 * workers)
    bounds = [(i * count) // chunks for i in range(chunks + 1)]
    ranges = list(zip(bounds, bounds[1:]))

    def in_order(parts) -> list:
        out = []
        for (_, hi), part in zip(ranges, parts):
            out.append(part)
            if progress:
                progress(hi, count)
        return out

    if workers == 1:
        return in_order(fn(shared, lo, hi) for lo, hi in ranges)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(fn, shared)
    ) as pool:
        return in_order(pool.map(_run_chunk, ranges))
