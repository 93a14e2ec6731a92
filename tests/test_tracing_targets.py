"""The benchmark's tracer wraps ehcalloc names; they must keep existing."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import ehcalloc as e
from ehcalloc.bilp import model_stats

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves():
    targets = load_tracing().TARGETS
    assert targets
    missing = [(mod, attr) for mod, attr, _name, _annotate in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_model_stats_keeps_the_keys_the_tracer_reads(topology, policy):
    _, model = e.prepare(topology, e.inspection_workflow(), policy)
    stats = model_stats(model)
    assert stats["variables"]["total"] == model.n_vars
    assert stats["variables"]["replica"] == 0
    assert stats["constraints"]["total"] == len(model.constraints)


def test_every_solve_of_a_pass_is_traced(topology, workflow, policy):
    # a solve routed around the traced module attributes would drop out of
    # the per-kind metrics; a fixture solve plus a 21-point sweep runs 30
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        e.pipeline.solve_allocation(topology, workflow, policy, e.ObjectiveWeights(0.5, 0.5))
        e.pipeline.sweep(topology, workflow, policy, steps=20)
    finally:
        tracer.uninstall()
    solves = [s["attrs"] for s in tracer.take() if s["name"] == "solver.solve_builtin"]
    kinds = Counter(attrs["kind"] for attrs in solves)
    assert kinds == {"rel_max": 2, "rel_min": 2, "lat_max": 2, "lat_min": 2, "weighted": 22}
    assert {attrs["status"] for attrs in solves} == {"optimal"}
