"""One process pool for the oracle and the Monte-Carlo draw.

A job is a module-level ``fn(shared, lo, hi, progress=None)`` over the
items lo .. hi-1 that calls ``progress(done, hi - lo)`` after each of its
blocks; `map_ranges` runs it in this process or over contiguous ranges in
a pool.

Only a run that starts a pool imports `concurrent.futures`' process pool,
and with it `multiprocessing`; a run in this process loads neither.
"""

from __future__ import annotations

import os
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
    """``fn`` over contiguous ranges that cover ``range(count)``, in index order.

    The workers are capped at ``count`` and at the CPU count; count >= 1.
    One worker makes the single call ``fn(shared, 0, count, progress)`` in
    this process, so the job reports after each of its blocks.  More give
    ``min(count, 4 * workers)`` ranges, and ``progress`` gets (end of the
    range, ``count``) after each.  The pool initializer sends each worker
    ``fn`` (module-level) and ``shared`` once, so a task is two bounds.
    """
    workers = min(workers, count, os.cpu_count() or 1)
    if workers <= 1:
        return [fn(shared, 0, count, progress)]
    from concurrent.futures import ProcessPoolExecutor

    chunks = min(count, 4 * workers)
    bounds = [(i * count) // chunks for i in range(chunks + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    out = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(fn, shared)
    ) as pool:
        for (_, hi), part in zip(ranges, pool.map(_run_chunk, ranges)):
            out.append(part)
            if progress:
                progress(hi, count)
    return out
