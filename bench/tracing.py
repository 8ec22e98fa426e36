"""Per-layer tracing from outside the library.

``Tracer.installed()`` replaces the public entry point of each layer with a
wrapper that records a span (name, start, end, parent span, job) and the
layer's work counters, and puts the originals back on exit.  Spans stay in
memory; ``layer_metrics`` turns one traced pass into the per-layer metrics.

Patching points, found by reading the call sites:
- ``cli`` binds ``run_algorithm`` by name at import, so both
  ``quadversary.core.run_algorithm`` and ``quadversary.cli.run_algorithm``
  are wrapped.
- Every other layer is reached through a module attribute (``lp.solve``,
  ``convex.chernoff_factor``, ...) or a class attribute
  (``MaximalConvexEvaluator.values``), so wrapping that attribute catches
  every call, nested ones included.
- ``default_height_threshold`` is ``lru_cache``d; the harness clears it
  before each pass so every pass runs ``find_height_threshold`` once.
"""

from __future__ import annotations

import contextlib
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Iterator

JOB_SPAN = "cli.main"

# Per-layer metrics: name, unit, better.  The order is the output order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("core.run_algorithm.time_s", "s", "lower"),
    ("core.run_algorithm.queries", "count", "lower"),
    ("core.run_algorithm.us_per_query", "us", "lower"),
    ("monotone.build_fooling_pair.time_s", "s", "lower"),
    ("monotone.union_box_volume.time_s", "s", "lower"),
    ("monotone.union_box_volume.calls", "count", "lower"),
    ("monotone.union_box_volume.corners", "count", "lower"),
    ("monotone.union_box_volume.exact_calls", "count", "higher"),
    ("monotone.union_box_volume.exact_share", "ratio", "higher"),
    ("monotone.union_box_volume.exact_time_s", "s", "lower"),
    ("monotone.union_box_volume.mc_time_s", "s", "lower"),
    ("lp.solve.time_s", "s", "lower"),
    ("lp.solve.calls", "count", "lower"),
    ("lp.solve.pivots", "count", "lower"),
    ("lp.solve.pivots_per_solve", "count", "lower"),
    ("lp.solve.us_per_pivot", "us", "lower"),
    ("convex.evaluator.values.time_s", "s", "lower"),
    ("convex.evaluator.values.queries", "count", "lower"),
    ("convex.evaluator.values.self_s", "s", "lower"),
    ("convex.evaluator.values.cache_hit_share", "ratio", "higher"),
    ("convex.empirical_error_lower_bound.time_s", "s", "lower"),
    ("convex.chernoff_factor_min.time_s", "s", "lower"),
    ("convex.chernoff_factor_min.calls", "count", "lower"),
    ("convex.chernoff_factor.calls", "count", "lower"),
    ("convex.find_height_threshold.time_s", "s", "lower"),
    ("quadrature.staircase_monotone.time_s", "s", "lower"),
    ("quadrature.staircase_monotone.nodes", "count", "lower"),
    ("quadrature.monte_carlo.time_s", "s", "lower"),
    ("quadrature.monte_carlo.samples", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("share.union_box_volume", "ratio", "lower"),
    ("share.evaluator_values", "ratio", "lower"),
    ("share.bounds_layers", "ratio", "lower"),
]

# Layers whose time makes up each workload's designed share of trace.wall_s.
SHARES = {
    "share.union_box_volume": ("monotone.union_box_volume",),
    "share.evaluator_values": ("convex.evaluator.values",),
    "share.bounds_layers": (
        "core.run_algorithm",
        "convex.find_height_threshold",
        "convex.chernoff_factor_min",
        "convex.chernoff_factor",
        "quadrature.staircase_monotone",
        "quadrature.monte_carlo",
    ),
}

Counter = Callable[[tuple, dict, Any, float], dict[str, float]]


def _one_call(args: tuple, kwargs: dict, result: Any, dt: float) -> dict[str, float]:
    return {"calls": 1}


def _queries(args: tuple, kwargs: dict, result: Any, dt: float) -> dict[str, float]:
    return {"queries": result[0].n}


def _union_counts(args: tuple, kwargs: dict, result: Any, dt: float) -> dict[str, float]:
    corners = args[0] if args else kwargs["corners"]
    return {
        "calls": 1,
        "corners": len(corners),
        "exact_calls": int(result.exact),
        "exact_time_s": dt if result.exact else 0.0,
        "mc_time_s": 0.0 if result.exact else dt,
    }


def _targets() -> list[tuple[object, str, str, Counter | None]]:
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    from quadversary import cli, convex, core, lp, monotone, quadrature

    return [
        (core, "run_algorithm", "core.run_algorithm", _queries),
        (cli, "run_algorithm", "core.run_algorithm", _queries),
        (monotone, "build_fooling_pair", "monotone.build_fooling_pair", None),
        (monotone, "union_box_volume", "monotone.union_box_volume", _union_counts),
        (lp, "solve", "lp.solve", lambda a, k, r, dt: {"calls": 1, "pivots": r.iterations}),
        (convex.MaximalConvexEvaluator, "values", "convex.evaluator.values",
         lambda a, k, r, dt: {"queries": len(r)}),
        (convex, "empirical_error_lower_bound", "convex.empirical_error_lower_bound", None),
        (convex, "chernoff_factor_min", "convex.chernoff_factor_min", _one_call),
        (convex, "chernoff_factor", "convex.chernoff_factor", _one_call),
        (convex, "find_height_threshold", "convex.find_height_threshold", None),
        (quadrature, "staircase_monotone", "quadrature.staircase_monotone",
         lambda a, k, r, dt: {"nodes": r.samples_used}),
        (quadrature, "monte_carlo", "quadrature.monte_carlo",
         lambda a, k, r, dt: {"samples": a[1] if len(a) > 1 else k["n"]}),
    ]


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, job].
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job = ""

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, perf_counter(), 0.0, parent, self._job])
        return index

    def _close(self, index: int) -> float:
        span = self.spans[index]
        span[2] = perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    @contextlib.contextmanager
    def job(self, name: str) -> Iterator[None]:
        """Root span around one CLI job."""
        self._job = name
        index = self._open(JOB_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result, dt).items():
                    self.counters[f"{name}.{key}"] += value
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, counter in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_time(self, names: tuple[str, ...]) -> float:
        """Time inside spans named in ``names``, nested ones counted once."""
        total = 0.0
        for span in self.spans:
            if span[0] in names and not self._has_ancestor(span, names):
                total += span[2] - span[1]
        return total

    def _has_ancestor(self, span: list, names: tuple[str, ...]) -> bool:
        parent = span[3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time(self, name: str) -> float:
        """Duration of spans named ``name`` minus that of their child spans."""
        own = self.layer_time((name,))
        children = sum(
            s[2] - s[1] for s in self.spans if s[3] >= 0 and self.spans[s[3]][0] == name
        )
        return own - children

    def child_count(self, name: str, parent_name: str) -> int:
        return sum(
            1 for s in self.spans if s[0] == name and s[3] >= 0 and self.spans[s[3]][0] == parent_name
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except ``trace.overhead_s``."""
    c = tracer.counters

    def t(name: str) -> float:
        return tracer.layer_time((name,))

    m: dict[str, float] = {}
    m["core.run_algorithm.time_s"] = t("core.run_algorithm")
    m["core.run_algorithm.queries"] = c["core.run_algorithm.queries"]
    m["core.run_algorithm.us_per_query"] = 1e6 * _ratio(
        m["core.run_algorithm.time_s"], m["core.run_algorithm.queries"])
    m["monotone.build_fooling_pair.time_s"] = t("monotone.build_fooling_pair")
    m["monotone.union_box_volume.time_s"] = t("monotone.union_box_volume")
    for key in ("calls", "corners", "exact_calls", "exact_time_s", "mc_time_s"):
        m[f"monotone.union_box_volume.{key}"] = c[f"monotone.union_box_volume.{key}"]
    m["monotone.union_box_volume.exact_share"] = _ratio(
        c["monotone.union_box_volume.exact_calls"], c["monotone.union_box_volume.calls"])
    m["lp.solve.time_s"] = t("lp.solve")
    m["lp.solve.calls"] = c["lp.solve.calls"]
    m["lp.solve.pivots"] = c["lp.solve.pivots"]
    m["lp.solve.pivots_per_solve"] = _ratio(c["lp.solve.pivots"], c["lp.solve.calls"])
    m["lp.solve.us_per_pivot"] = 1e6 * _ratio(m["lp.solve.time_s"], c["lp.solve.pivots"])
    queries = c["convex.evaluator.values.queries"]
    solves = tracer.child_count("lp.solve", "convex.evaluator.values")
    m["convex.evaluator.values.time_s"] = t("convex.evaluator.values")
    m["convex.evaluator.values.queries"] = queries
    m["convex.evaluator.values.self_s"] = tracer.self_time("convex.evaluator.values")
    m["convex.evaluator.values.cache_hit_share"] = 1.0 - _ratio(solves, queries) if queries else 0.0
    m["convex.empirical_error_lower_bound.time_s"] = t("convex.empirical_error_lower_bound")
    m["convex.chernoff_factor_min.time_s"] = t("convex.chernoff_factor_min")
    m["convex.chernoff_factor_min.calls"] = c["convex.chernoff_factor_min.calls"]
    m["convex.chernoff_factor.calls"] = c["convex.chernoff_factor.calls"]
    m["convex.find_height_threshold.time_s"] = t("convex.find_height_threshold")
    m["quadrature.staircase_monotone.time_s"] = t("quadrature.staircase_monotone")
    m["quadrature.staircase_monotone.nodes"] = c["quadrature.staircase_monotone.nodes"]
    m["quadrature.monte_carlo.time_s"] = t("quadrature.monte_carlo")
    m["quadrature.monte_carlo.samples"] = c["quadrature.monte_carlo.samples"]
    m["cli.self_s"] = tracer.self_time(JOB_SPAN)
    m["trace.wall_s"] = traced_wall
    for share, names in SHARES.items():
        m[share] = _ratio(tracer.layer_time(names), traced_wall)
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Metric-by-metric median over traced passes."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
