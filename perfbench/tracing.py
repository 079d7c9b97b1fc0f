"""Span tracing around the library's layer functions, from outside the library.

:func:`instrument` replaces each layer's public function with a wrapper
that records a span (layer, start, end, parent) and the layer's counters,
then restores the originals.  Most callers bind a layer function with
``from module import f``, so the wrapper is installed at *every* attribute
of a loaded ``repro`` module that holds the original function object —
``repro.core.timeindexed.solve_lp`` as well as ``repro.lp.solver.solve_lp``.
Methods (``ResultStore.get``/``put``, ``Backoff.sleep``) are patched on
their class.

Spans are kept in memory; :func:`self_times` turns them into per-layer
self time — a span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Modules whose import must precede patching, so every ``from … import f``
#: binding of a layer function already exists when the wrappers go in.
PRELOAD = (
    "repro",
    "repro.api",
    "repro.baselines.greedy",
    "repro.baselines.jahanjou",
    "repro.baselines.sincronia",
    "repro.baselines.terra",
    "repro.core.scheduler",
    "repro.experiments.sweep",
    "repro.online.engine",
    "repro.online.policies",
    "repro.store",
    "repro.utils.retry",
)


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None  # index of the enclosing span


@dataclass
class Tracer:
    """In-memory span and counter record of one traced run."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(layer, time.perf_counter(), parent=parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer self time: each span's duration minus its children's durations.

    Children of one span never overlap (the run is single-threaded and
    spans nest), so the time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: Dict[str, float] = defaultdict(float)
    for span, covered in zip(spans, child_time):
        totals[span.layer] += (span.end - span.start) - covered
    return dict(totals)


def covered_time(spans: Sequence[Span]) -> float:
    """Wall time covered by top-level spans (the sum of all self times)."""
    return sum(s.end - s.start for s in spans if s.parent is None)


# --------------------------------------------------------------------------- #
# per-layer hooks: (module, attribute, layer, observe(tracer, result))
# --------------------------------------------------------------------------- #
def _grid(tracer: Tracer, grid) -> None:
    tracer.add("grid.slots", grid.num_slots)


def _lp_build(tracer: Tracer, built) -> None:
    size = built[0].size_summary()
    tracer.add("lp_build.nnz", size["nonzeros"])
    tracer.add(
        "lp_build.rows", size["inequality_constraints"] + size["equality_constraints"]
    )
    tracer.add("lp_build.cols", size["variables"])


def _lp_solve(tracer: Tracer, result) -> None:
    if result.metadata.get("warm_start") == "reused":
        tracer.add("lp_solve.cache_hits")
        return
    tracer.add("lp_solve.backend_s", result.solve_seconds or 0.0)
    tracer.add("lp_solve.iterations", result.simplex_iterations or 0)


def _feasibility(tracer: Tracer, report) -> None:
    if not report.is_feasible:
        tracer.add("feasibility.infeasible")


def _sim(tracer: Tracer, result) -> None:
    meta = result.metadata
    tracer.add("sim.events", meta.get("events", 0))
    tracer.add("sim.alloc_computed", meta.get("allocations_computed", 0))
    tracer.add("sim.alloc_reused", meta.get("allocations_reused", 0))


def _store_get(tracer: Tracer, payload) -> None:
    if payload is not None:
        tracer.add("store.get_hits")


FUNCTION_LAYERS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.core.timeindexed", "resolve_grid", "grid", _grid),
    ("repro.core.timeindexed", "build_time_indexed_lp", "lp_build", _lp_build),
    ("repro.lp.solver", "solve_lp", "lp_solve", _lp_solve),
    ("repro.core.stretch", "run_stretch", "stretch", None),
    ("repro.schedule.compaction", "compact_schedule", "compaction", None),
    ("repro.schedule.feasibility", "check_feasibility", "feasibility", _feasibility),
    ("repro.sim.simulator", "simulate_priority_schedule", "sim", _sim),
    ("repro.sim.rate_allocation", "coflow_standalone_time", "standalone", None),
    ("repro.api.batch", "solve", "api", None),
    ("repro.experiments.sweep", "run_sweep", "sweep", None),
)
METHOD_LAYERS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.store.store", "ResultStore", "get", "store_get", _store_get),
    ("repro.store.store", "ResultStore", "put", "store_put", None),
    ("repro.utils.retry", "Backoff", "sleep", "retry_sleep", None),
)


def _wrap(tracer: Tracer, fn: Callable, layer: str, observe: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(f"{layer}.calls")
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, result)
        return result

    return wrapper


def _wrap_retry(tracer: Tracer, fn: Callable):
    """``retry_call`` wrapper counting attempts and successful calls."""

    @functools.wraps(fn)
    def wrapper(op, *args, **kwargs):
        def counted(attempt: int):
            tracer.add("retry.attempts")
            return op(attempt)

        tracer.add("retry.calls")
        result = fn(counted, *args, **kwargs)
        tracer.add("retry.successes")
        return result

    return wrapper


def _rebind(original: object, replacement: object) -> List[Tuple[object, str]]:
    """Point every ``repro`` module attribute bound to *original* at *replacement*."""
    bound = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound.append((module, attr))
    return bound


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every layer function for the duration of the block."""
    for name in PRELOAD:
        importlib.import_module(name)
    restore: List[Tuple[object, str, object]] = []
    try:
        for module_name, attr, layer, observe in FUNCTION_LAYERS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = _wrap(tracer, original, layer, observe)
            restore.extend((m, a, original) for m, a in _rebind(original, wrapper))
        retry = importlib.import_module("repro.utils.retry").retry_call
        restore.extend(
            (m, a, retry) for m, a in _rebind(retry, _wrap_retry(tracer, retry))
        )
        for module_name, cls_name, method, layer, observe in METHOD_LAYERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = vars(cls)[method]
            setattr(cls, method, _wrap(tracer, original, layer, observe))
            restore.append((cls, method, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, traced_wall: float) -> Dict[str, float]:
    """The per-layer metrics of a traced run (everything but the overhead)."""
    own = self_times(tracer.spans)
    c = tracer.counts

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    alloc = c["sim.alloc_computed"] + c["sim.alloc_reused"]
    return {
        "grid.calls": c["grid.calls"],
        "grid.self_s": own.get("grid", 0.0),
        "grid.slots": c["grid.slots"],
        "lp_build.calls": c["lp_build.calls"],
        "lp_build.self_s": own.get("lp_build", 0.0),
        "lp_build.nnz": c["lp_build.nnz"],
        "lp_build.rows": c["lp_build.rows"],
        "lp_build.cols": c["lp_build.cols"],
        "lp_solve.calls": c["lp_solve.calls"],
        "lp_solve.self_s": own.get("lp_solve", 0.0),
        "lp_solve.backend_s": c["lp_solve.backend_s"],
        "lp_solve.iterations": c["lp_solve.iterations"],
        "lp_solve.cache_hits": c["lp_solve.cache_hits"],
        "stretch.draws": c["stretch.calls"],
        "stretch.self_s": own.get("stretch", 0.0),
        "compaction.calls": c["compaction.calls"],
        "compaction.self_s": own.get("compaction", 0.0),
        "feasibility.calls": c["feasibility.calls"],
        "feasibility.self_s": own.get("feasibility", 0.0),
        "feasibility.infeasible": c["feasibility.infeasible"],
        "sim.calls": c["sim.calls"],
        "sim.self_s": own.get("sim", 0.0),
        "sim.events": c["sim.events"],
        "sim.alloc_computed": c["sim.alloc_computed"],
        "sim.alloc_reuse_ratio": ratio(c["sim.alloc_reused"], alloc),
        "standalone.calls": c["standalone.calls"],
        "standalone.self_s": own.get("standalone", 0.0),
        "store.get_calls": c["store_get.calls"],
        "store.get_s": own.get("store_get", 0.0),
        "store.hit_ratio": ratio(c["store.get_hits"], c["store_get.calls"]),
        "store.put_calls": c["store_put.calls"],
        "store.put_s": own.get("store_put", 0.0),
        "retry.attempts": c["retry.attempts"],
        "retry.retries": c["retry.attempts"] - c["retry.calls"],
        "retry.success_ratio": ratio(c["retry.successes"], c["retry.calls"]),
        "retry.sleep_s": own.get("retry_sleep", 0.0),
        "api.solves": c["api.calls"],
        "api.self_s": own.get("api", 0.0),
        "sweep.self_s": own.get("sweep", 0.0),
        "rest.self_s": traced_wall - covered_time(tracer.spans),
    }
