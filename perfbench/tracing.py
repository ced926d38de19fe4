"""Outside-in tracing of the program's layers for the traced benchmark run.

:func:`install` wraps public calls of each ``repro`` module from outside:
every module-level name bound to a wrapped function (``from x import f``
copies included) and every wrapped class attribute is replaced, so callers
inside the package go through the wrapper too.  Each call records a span
``(name, start, end, parent, op, count)`` in memory; :func:`layer_totals`
turns spans into per-layer self times and counts when the run ends.

A span's self time is its duration minus the time its child spans cover.
Spans inside pool worker processes are not recorded.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Span tuple fields.
NAME, START, END, PARENT, OP, COUNT = range(6)


def _rows(position: int, keyword: str) -> Callable[[tuple, dict, Any], int]:
    """Counter: leading dimension of the argument at ``position``/``keyword``."""

    def count(args: tuple, kwargs: dict, result: Any) -> int:
        value = kwargs.get(keyword, args[position] if len(args) > position else None)
        shape = getattr(value, "shape", None)
        if not shape:
            return 1
        return int(shape[0]) if len(shape) > 1 else 1

    return count


def _one(args: tuple, kwargs: dict, result: Any) -> int:
    return 1


@dataclass
class Tracer:
    """In-memory span recorder; one span stack per thread."""

    spans: list = field(default_factory=list)
    op: Any = None
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def set_thread_op(self, op: Any) -> None:
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, counter) -> Any:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        op = getattr(self._local, "op", None)
        if op is None:
            op = self.op
        with self._lock:
            self.spans.append(None)
            index = len(self.spans) - 1
        stack.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            count = counter(args, kwargs, result) if counter is not None and result is not None else 0
            self.spans[index] = (name, start, end, parent, op, count)


def _wrap_function(tracer: Tracer, name: str, fn: Callable, counter) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, args, kwargs, counter)

    return wrapper


def _wrap_lazy_property(tracer: Tracer, name: str, prop: property, cache: str) -> property:
    """Span only the accesses that find ``self.<cache>`` empty and fill it."""
    getter = prop.fget

    def fget(self: Any) -> Any:
        if getattr(self, cache, None) is not None:
            return getter(self)
        return tracer.call(name, getter, (self,), {}, None)

    return property(fget, prop.fset, prop.fdel, prop.__doc__)


def _rebind(original: Any, replacement: Any) -> int:
    """Point every ``repro`` module-level name bound to ``original`` at ``replacement``."""
    rebound = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                rebound += 1
    return rebound


#: ``(module, attribute, span name, counter)`` for module-level functions.
FUNCTION_TARGETS: list[tuple[str, str, str, Any]] = [
    ("repro.workloads.synthetic", "gaussian_clusters", "workloads.generate", None),
    ("repro.workloads.synthetic", "uniform_cloud", "workloads.generate", None),
    ("repro.workloads.synthetic", "heavy_tailed", "workloads.generate", None),
    ("repro.workloads.synthetic", "anisotropic_clusters", "workloads.generate", None),
    ("repro.uncertain.reduction", "expected_point_reduction", "uncertain.reduction", None),
    ("repro.uncertain.reduction", "one_center_reduction", "uncertain.reduction", None),
    ("repro.deterministic.gonzalez", "gonzalez_kcenter", "deterministic.kcenter", None),
    ("repro.deterministic.exact", "exact_euclidean_kcenter", "deterministic.kcenter", None),
    ("repro.geometry.median", "geometric_median", "geometry.median", _one),
    ("repro.cost.expected", "expected_cost_assigned", "cost.assigned", _one),
    ("repro.bounds.lower_bounds", "assigned_cost_lower_bound", "bounds.certificate", None),
    ("repro.algorithms.restricted", "solve_restricted_assigned", "algorithms.solve", None),
    ("repro.algorithms.unrestricted", "solve_unrestricted_assigned", "algorithms.solve", None),
    ("repro.baselines.brute_force", "brute_force_restricted_assigned", "baselines.brute_force", None),
    ("repro.baselines.brute_force", "brute_force_unassigned", "baselines.brute_force", None),
    ("repro.runtime.parallel", "parallel_map", "runtime.map", None),
    ("repro.runtime.parallel", "parallel_map_ordered", "runtime.map", None),
]

#: ``(module, class, method, span name, counter)`` for class attributes.
METHOD_TARGETS: list[tuple[str, str, str, str, Any]] = [
    ("repro.metrics.euclidean", "EuclideanMetric", "pairwise", "metrics.pairwise", _one),
    ("repro.metrics.euclidean", "MinkowskiMetric", "pairwise", "metrics.pairwise", _one),
    ("repro.assignments.policies", "ExpectedDistanceAssignment", "assign", "assignments.label", None),
    ("repro.assignments.policies", "ExpectedPointAssignment", "assign", "assignments.label", None),
    ("repro.assignments.policies", "OptimalAssignment", "assign", "assignments.polish", None),
    ("repro.cost.context", "CostContext", "__init__", "cost.context", None),
    ("repro.cost.context", "CostContext", "assigned_cost", "cost.assigned", _one),
    ("repro.cost.context", "CostContext", "assigned_costs", "cost.assigned", _rows(1, "candidate_index_rows")),
    ("repro.cost.context", "CostContext", "unassigned_costs", "cost.unassigned", _rows(1, "subset_rows")),
    ("repro.cost.context", "CostContext", "local_search_sweep", "cost.sweep", None),
    ("repro.cost.expected", "AssignedCostEvaluator", "local_search_sweep", "cost.sweep", None),
    ("repro.cost.expected", "AssignedCostEvaluator", "move_costs", "cost.sweep", None),
    ("repro.cost.expected", "LocalSearchSweep", "rest_profile", "cost.sweep", None),
    ("repro.cost.expected", "LocalSearchSweep", "apply_move", "cost.sweep", None),
    ("repro.cost.expected", "LocalSearchSweep", "cost", "cost.sweep", None),
    ("repro.cost.context", "CostContext", "subset_assigned_lower_bounds", "bounds.level1", _rows(1, "subset_rows")),
    ("repro.cost.context", "CostContext", "subset_unassigned_lower_bounds", "bounds.level1", _rows(1, "subset_rows")),
    ("repro.cost.context", "CostContext", "subset_pair_lower_bounds", "bounds.pair", _rows(1, "subset_rows")),
]

#: ``(module, class, property, cache attribute, span name)`` for lazy pins.
PROPERTY_TARGETS: list[tuple[str, str, str, str, str]] = [
    ("repro.cost.context", "CostContext", "supports", "_supports", "cost.context"),
    ("repro.cost.context", "CostContext", "expected", "_expected", "cost.context"),
    ("repro.cost.context", "CostContext", "evaluator", "_evaluator", "cost.context"),
]


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the ones that were not found."""
    import importlib

    missing: list[str] = []
    for module_name, attr, name, counter in FUNCTION_TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        _rebind(original, _wrap_function(tracer, name, original, counter))
    for module_name, cls_name, attr, name, counter in METHOD_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, _wrap_function(tracer, name, original, counter))
    for module_name, cls_name, attr, cache, name in PROPERTY_TARGETS:
        cls = getattr(importlib.import_module(module_name), cls_name, None)
        prop = None if cls is None else cls.__dict__.get(attr)
        if not isinstance(prop, property):
            missing.append(f"{module_name}.{cls_name}.{attr}")
            continue
        setattr(cls, attr, _wrap_lazy_property(tracer, name, prop, cache))
    return missing


def install_serve(tracer: Tracer) -> None:
    """Tag every span of a ``/v1/solve`` request with its request id."""
    from repro.serve import server

    handler = server.POST_ROUTES["/v1/solve"]

    def traced_solve(state: Any, payload: Any, request_id: int) -> dict:
        tracer.set_thread_op(request_id)
        try:
            return tracer.call("serve.solve", handler, (state, payload, request_id), {}, None)
        finally:
            tracer.set_thread_op(None)

    server.POST_ROUTES["/v1/solve"] = traced_solve


#: Layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME_LAYERS: dict[str, tuple[str, ...]] = {
    "uncertain.reduction_s": ("uncertain.reduction",),
    "deterministic.kcenter_s": ("deterministic.kcenter",),
    "geometry.median_s": ("geometry.median",),
    "metrics.pairwise_s": ("metrics.pairwise",),
    "assignments.label_s": ("assignments.label",),
    "assignments.polish_s": ("assignments.polish",),
    "cost.context_s": ("cost.context",),
    "cost.assigned_s": ("cost.assigned",),
    "cost.unassigned_s": ("cost.unassigned",),
    "cost.sweep_s": ("cost.sweep",),
    "bounds.level1_s": ("bounds.level1",),
    "bounds.pair_s": ("bounds.pair",),
    "bounds.certificate_s": ("bounds.certificate",),
    "algorithms.self_s": ("algorithms.solve",),
    "baselines.self_s": ("baselines.brute_force",),
}

#: Count metrics: metric name -> span names whose counts it sums.
COUNT_LAYERS: dict[str, tuple[str, ...]] = {
    "geometry.median_calls": ("geometry.median",),
    "metrics.pairwise_calls": ("metrics.pairwise",),
    "cost.assigned_rows": ("cost.assigned",),
    "cost.unassigned_rows": ("cost.unassigned",),
    "bounds.level1_rows": ("bounds.level1",),
    "bounds.pair_rows": ("bounds.pair",),
}


def layer_totals(spans: list, ops: set) -> dict[str, float]:
    """Summed self times and counts over the spans of the ops in ``ops``.

    ``runtime.map_s`` is inclusive (the map as its caller sees it, chunk
    work included); every other time is self time.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    by_name_self: dict[str, float] = {}
    by_name_count: dict[str, int] = {}
    map_inclusive = 0.0
    for index, span in enumerate(spans):
        if span is None or span[OP] not in ops:
            continue
        name = span[NAME]
        duration = span[END] - span[START]
        by_name_self[name] = by_name_self.get(name, 0.0) + duration - child_time[index]
        by_name_count[name] = by_name_count.get(name, 0) + span[COUNT]
        if name == "runtime.map":
            parent = span[PARENT]
            if parent < 0 or spans[parent] is None or spans[parent][NAME] != "runtime.map":
                map_inclusive += duration
    totals: dict[str, float] = {"runtime.map_s": map_inclusive}
    for metric, names in SELF_TIME_LAYERS.items():
        totals[metric] = sum(by_name_self.get(name, 0.0) for name in names)
    for metric, names in COUNT_LAYERS.items():
        totals[metric] = float(sum(by_name_count.get(name, 0) for name in names))
    return totals


def generate_seconds(spans: list, op: Any) -> float:
    """Total time of generator calls tagged ``op``."""
    return sum(
        span[END] - span[START]
        for span in spans
        if span is not None and span[NAME] == "workloads.generate" and span[OP] == op
    )
