"""Spans around calls into each detmom layer, recorded from outside the package.

`Tracer.install` replaces public functions and methods of ``detmom.poly``,
``series``, ``formulas``, ``tables``, ``sampling`` and ``verify`` with timing
wrappers, in every detmom module that holds a reference to them.  It is
meant for a process that runs one command and exits; nothing is restored.

Each wrapped call is a span with an id, its parent's id, a name, and its
start and end on the `time.perf_counter` clock.  Spans are kept in memory.
A span's self time is its duration minus the time of the spans it called,
and the tracer's own bookkeeping is left out of both, so per-layer times sum
to at most the traced command's wall time.  ``sampling.target`` is the one
span whose time is reported inclusive of its children (see `layer_totals`).
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Optional

from detmom.poly import MomentPolynomial

_clock = time.perf_counter

# Span names whose time is reported with their children included.
INCLUSIVE = ("sampling.target",)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _nterms(p: Any) -> int:
    """Number of terms of a polynomial operand; a nonzero scalar has one."""
    if isinstance(p, MomentPolynomial):
        return len(p._terms)
    return 1 if p else 0


class Tracer:
    """Records spans and work counters for one command."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, seconds spent in children]
        self._next_id = 0
        self._cached: list[Callable] = []

    # -- spans -------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
        cpu: bool = False,
    ) -> Callable:
        """A wrapper timing ``fn`` as span ``name``.

        ``after(args, kwargs, result)`` runs on success, outside the timed
        interval, to count work.  With ``cpu`` the call's CPU time, reaped
        pool workers included, is added to the counter ``<name>_cpu_s``.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            entered = _clock()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            cpu0 = cpu_seconds() if cpu else 0.0
            start = _clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                self.spans.append((span_id, parent, name, start, end))
                self.calls[name] += 1
                self.self_s[name] += duration if name in INCLUSIVE else duration - frame[1]
                if ok:
                    if cpu:
                        self.counts[name + "_cpu_s"] += cpu_seconds() - cpu0
                    if after is not None:
                        after(args, kwargs, result)
                if stack:
                    stack[-1][1] += _clock() - entered

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_method(self, cls: type, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def _patch_function(self, module, attr: str, name: str, after=None, cpu=False) -> None:
        """Replace ``module.attr`` in every detmom module that imported it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, after, cpu)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "detmom" or mod_name.startswith("detmom."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def install(self) -> None:
        from detmom import formulas, poly, sampling, series, tables, verify

        counts = self.counts

        def count_pairs(args, kwargs, result):
            counts["poly.mul_pairs"] += _nterms(args[0]) * _nterms(args[1])

        P = MomentPolynomial
        for attr in ("__mul__", "__rmul__"):
            self._patch_method(P, attr, "poly.mul", count_pairs)
        for attr in ("__add__", "__radd__"):
            self._patch_method(P, attr, "poly.add")
        self._patch_method(P, "evaluate", "poly.evaluate")
        for attr in ("to_text", "__str__", "to_json_dict"):
            self._patch_method(P, attr, "poly.render")
        for attr in ("central_to_raw", "raw_to_central"):
            self._patch_function(poly, attr, "poly.convert")

        init = P.__init__

        def counted_init(obj, *args, **kwargs):
            counts["poly.objects"] += 1
            init(obj, *args, **kwargs)

        P.__init__ = counted_init

        S = series.TruncatedEGF
        for attr, op in (("__mul__", "mul"), ("__rmul__", "mul"), ("pow", "pow"),
                         ("exp", "exp"), ("geometric", "geometric"),
                         ("compose", "compose")):
            self._patch_method(S, attr, f"series.{op}")
        for attr in ("to_text", "to_json_dict"):
            self._patch_method(S, attr, "poly.render")

        for attr, fn in list(vars(formulas).items()):
            builder = getattr(fn, "__wrapped__", fn)  # under an lru_cache
            if attr.startswith("_") or not inspect.isfunction(builder) \
                    or builder.__module__ != formulas.__name__:
                continue
            if hasattr(fn, "cache_info"):
                self._cached.append(fn)
            self._patch_function(formulas, attr, "formulas.build")

        # The oracle sizes its enumeration with table_count; the last size
        # seen is counted when the oracle call succeeds, not when refused.
        sizes = []

        def note_tables(args, kwargs, result):
            sizes.append(result)

        def count_tables(args, kwargs, result):
            counts["tables.tables"] += sizes[-1]
            sizes.clear()

        self._patch_function(tables, "table_count", "tables.table_count", note_tables)
        self._patch_function(tables, "oracle_moment", "tables.oracle", count_tables, cpu=True)

        signature = inspect.signature(sampling.exhaustive_moment)

        def count_matrices(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            counts["sampling.matrices"] += (
                len(bound.arguments["dist"].values) ** (bound.arguments["n"] ** 2)
            )

        def count_samples(args, kwargs, result):
            counts["sampling.samples"] += result.samples

        self._patch_function(sampling, "exhaustive_moment", "sampling.exhaustive", count_matrices)
        self._patch_function(sampling, "exact_moment_target", "sampling.target")
        self._patch_function(sampling, "mc_estimate", "sampling.draw", count_samples)

        def count_checks(args, kwargs, result):
            counts["verify.checks"] += len(result.checks)
            counts["verify.checks_failed"] += sum(not c.passed for c in result.checks)

        for suite in ("small", "series", "montecarlo"):
            self._patch_function(verify, f"suite_{suite}", f"verify.{suite}", count_checks)

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Per-layer sums for this command, keyed by metric name.

        ``<span>_s`` is self time, except for the spans in `INCLUSIVE`;
        ``<span>_calls`` counts calls.  Counters and lru_cache statistics
        of the formula builders are included as they are.
        """
        out: dict[str, float] = {}
        for name, seconds in self.self_s.items():
            out[name + "_s"] = seconds
            out[name + "_calls"] = self.calls[name]
        out.update(self.counts)
        infos = [fn.cache_info() for fn in self._cached]
        out["formulas.cache_hits"] = sum(i.hits for i in infos)
        out["formulas.cache_misses"] = sum(i.misses for i in infos)
        return out
