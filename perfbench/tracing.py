"""Spans recorded from outside ehcalloc, and the per-layer metrics they give.

The tracer replaces public functions of ``model``, ``synthgen``,
``transform``, ``bilp``, ``solver`` and ``pipeline`` at the module
attributes their callers look up at call time (``pipeline.prepare``
calls ``pipeline.build_eg``; ``bilp.normalization_bounds`` imports
``solver.solve_builtin`` on each call), and restores them afterwards.
Each call becomes a span: name, start, end, parent and a few counts.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from typing import Callable

SOLVE_KINDS = ("rel_max", "rel_min", "lat_max", "lat_min", "weighted")


def _solve_attrs(attrs: dict, args, result) -> None:
    attrs["kind"] = args[0].metadata.get("objective_kind")
    attrs["nodes"] = result.nodes
    attrs["status"] = result.status.value


def _prepare_attrs(attrs: dict, args, result) -> None:
    topology, graph, policy = args[:3]
    attrs["model_key"] = (id(topology), id(graph), policy.level)


def _eg_attrs(attrs: dict, args, result) -> None:
    attrs["eg_arcs"] = result.arc_count


def _reg_attrs(attrs: dict, args, result) -> None:
    attrs["candidates"] = result.candidate_count


def _model_attrs(attrs: dict, args, result) -> None:
    stats = importlib.import_module("ehcalloc.bilp").model_stats(result)
    rows = stats["constraints"]
    attrs["vars"] = stats["variables"]["total"]
    attrs["vars_replica"] = stats["variables"]["replica"]
    attrs["rows"] = rows["total"]
    attrs["rows_arc_link"] = sum(rows.get(k, 0) for k in ("arc_src", "arc_dst", "arc_on"))


def _mps_attrs(attrs: dict, args, result) -> None:
    attrs["bytes"] = result.stat().st_size


#: (module, attribute, span name, annotation); a function imported into
#: several modules is wrapped in each module its callers resolve it from.
TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("ehcalloc.model", "validate_workflow", "model.validate_workflow", None),
    ("ehcalloc.synthgen", "generate", "synthgen.generate", None),
    ("ehcalloc.pipeline", "prepare", "pipeline.prepare", _prepare_attrs),
    ("ehcalloc.pipeline", "build_eg", "transform.build_eg", _eg_attrs),
    ("ehcalloc.pipeline", "build_reg", "transform.build_reg", _reg_attrs),
    ("ehcalloc.pipeline", "build_model", "bilp.build_model", _model_attrs),
    ("ehcalloc.pipeline", "normalization_bounds", "bilp.normalization_bounds", None),
    ("ehcalloc.pipeline", "weighted_objective", "bilp.weighted_objective", None),
    ("ehcalloc.bilp", "objective_latency", "bilp.objective_latency", None),
    ("ehcalloc.bilp", "objective_reliability", "bilp.objective_reliability", None),
    ("ehcalloc.pipeline", "solve_builtin", "solver.solve_builtin", _solve_attrs),
    ("ehcalloc.solver", "solve_builtin", "solver.solve_builtin", _solve_attrs),
    ("ehcalloc.solver", "verify", "solver.verify", None),
    ("ehcalloc.solver", "export_mps", "solver.export_mps", _mps_attrs),
    ("ehcalloc.solver", "read_mps", "solver.read_mps", None),
    ("ehcalloc.pipeline", "extract_plan", "pipeline.extract_plan", None),
    ("ehcalloc.pipeline", "solve_allocation", "pipeline.solve_allocation", None),
    ("ehcalloc.pipeline", "sweep", "pipeline.sweep", None),
    ("ehcalloc.pipeline", "assignment_from_picks", "pipeline.assignment_from_picks", None),
]

#: per-layer metric -> unit; every one is reported on every workload, as 0
#: where its layer does not run.
PER_LAYER_UNITS: dict[str, str] = {
    **{f"solver.{k}.{m}": u for k in SOLVE_KINDS for m, u in (("s", "s"), ("nodes", "count"))},
    "solver.nodes_per_s": "1/s",
    "solver.proven_frac": "ratio",
    "solver.verify_s": "s",
    "solver.export_mps_s": "s",
    "solver.read_mps_s": "s",
    "solver.mps_bytes": "B",
    "pipeline.prepare_calls": "count",
    "pipeline.prepare_s": "s",
    "pipeline.models_per_prepare": "ratio",
    "pipeline.extract_s": "s",
    "pipeline.serialize_s": "s",
    "model.validate_s": "s",
    "synthgen.generate_s": "s",
    "transform.eg_s": "s",
    "transform.reg_s": "s",
    "transform.candidates": "count",
    "transform.eg_arcs": "count",
    "bilp.build_s": "s",
    "bilp.vars": "count",
    "bilp.vars.replica": "count",
    "bilp.rows": "count",
    "bilp.rows.arc_link": "count",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def take(self) -> list[dict]:
        """Hand over the spans recorded since the last call and start afresh."""
        spans, self.spans = self.spans, []
        return spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else None,
                           "attrs": {}})
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]["attrs"]
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, annotate: Callable | None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if annotate is not None:
                # counting is the tracer's own work: give it its own span so
                # it lands in no layer's self time
                with self.span("trace.annotate"):
                    annotate(self.spans[idx]["attrs"], args, result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name, annotate in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, annotate))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are sequential, so children never overlap one another.
    """
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def span_table(spans: list[dict]) -> dict[str, dict]:
    """Calls, total and self seconds per span name."""
    table: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return dict(sorted(table.items(), key=lambda kv: -kv[1]["self_s"]))


def layer_metrics(spans: list[dict], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (or one set-up) from its spans.

    ``spans`` is one list handed over by :meth:`Tracer.take`, and
    ``wall_s`` the wall time it was recorded over.
    """
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    own = self_times(spans)

    def self_sum(name: str) -> float:
        return sum(t for s, t in zip(spans, own) if s["name"] == name)

    solves = [(s, t) for s, t in zip(spans, own) if s["name"] == "solver.solve_builtin"]
    for s, t in solves:
        kind = s["attrs"].get("kind")
        if kind in SOLVE_KINDS:
            m[f"solver.{kind}.s"] += t
            m[f"solver.{kind}.nodes"] += s["attrs"]["nodes"]
    solve_s = sum(t for _, t in solves)
    if solve_s > 0:
        m["solver.nodes_per_s"] = sum(s["attrs"].get("nodes", 0) for s, _ in solves) / solve_s
    if solves:
        m["solver.proven_frac"] = (sum(s["attrs"].get("status") == "optimal" for s, _ in solves)
                                   / len(solves))
    m["solver.verify_s"] = self_sum("solver.verify")
    m["solver.export_mps_s"] = self_sum("solver.export_mps")
    m["solver.read_mps_s"] = self_sum("solver.read_mps")
    prepares = [s for s in spans if s["name"] == "pipeline.prepare"]
    m["pipeline.prepare_calls"] = len(prepares)
    # inclusive: prepare's own body only dispatches to transform and bilp
    m["pipeline.prepare_s"] = sum(s["end"] - s["start"] for s in prepares)
    if prepares:
        # a call that raised has no annotation; it counts as one more model
        m["pipeline.models_per_prepare"] = (len({s["attrs"].get("model_key", i)
                                                 for i, s in enumerate(prepares)})
                                            / len(prepares))
    m["pipeline.extract_s"] = self_sum("pipeline.extract_plan")
    m["pipeline.serialize_s"] = self_sum("pipeline.serialize")
    m["model.validate_s"] = self_sum("model.validate_workflow")
    m["synthgen.generate_s"] = self_sum("synthgen.generate")
    m["transform.eg_s"] = self_sum("transform.build_eg")
    m["transform.reg_s"] = self_sum("transform.build_reg")
    m["bilp.build_s"] = self_sum("bilp.build_model")
    for s in spans:
        a = s["attrs"]
        m["solver.mps_bytes"] += a.get("bytes", 0)
        m["transform.candidates"] += a.get("candidates", 0)
        m["transform.eg_arcs"] += a.get("eg_arcs", 0)
        m["bilp.vars"] += a.get("vars", 0)
        m["bilp.vars.replica"] += a.get("vars_replica", 0)
        m["bilp.rows"] += a.get("rows", 0)
        m["bilp.rows.arc_link"] += a.get("rows_arc_link", 0)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m["trace.coverage"] = roots / wall_s if wall_s > 0 else 0.0
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    if not samples:
        return {name: 0.0 for name in PER_LAYER_UNITS}
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
