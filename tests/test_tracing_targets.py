"""The benchmark's tracer wraps ehcalloc names; they must keep existing."""

import importlib
import importlib.util
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
