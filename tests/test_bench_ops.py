"""The benchmark's operations run and pass their reference checks.

``perfbench/`` is not a package; its workload definitions, its tracer
and its reference answers are loaded from their paths, so a name the
benchmark reads that the program drops fails here, not in a bench run.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("model", "fixtures", "synthgen", "transform", "bilp", "solver", "pipeline")


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["fixture-sweep", "synth-frontier", "large-export"])
def test_tiny_workload_passes_its_checks(name, tmp_path):
    workloads = load("workloads")
    lib = SimpleNamespace(**{m: importlib.import_module(f"ehcalloc.{m}") for m in MODULES})
    refs = json.loads((PERFBENCH / "refs.json").read_text())
    wl = workloads.make(name, 3, True, refs, lib, load("tracing").NullTracer(), tmp_path)
    wl.setup()
    ops = wl.ops()
    assert ops
    for op in ops:
        op.check(op.run())


def test_make_refs_reproduces_the_fixture_solve(monkeypatch):
    # make_refs builds its HiGHS models through the objectives the solver
    # reads, so its stored answers must still come out of it unchanged
    pytest.importorskip("scipy")
    monkeypatch.setattr(sys, "path", list(sys.path))       # make_refs adds src/ to it
    monkeypatch.setitem(sys.modules, "workloads", load("workloads"))
    make_refs = load("make_refs")
    fixtures = importlib.import_module("ehcalloc.fixtures")
    ref = make_refs.solved_ref(fixtures.reference_topology(), fixtures.inspection_workflow(),
                               fixtures.default_policy(make_refs.W.POLICY_LEVEL), None)
    want = json.loads((PERFBENCH / "refs.json").read_text())["fixture"]["solve"]
    assert ref["g"] == want["g"]
    assert ref["bounds"] == want["bounds"]
    assert ref["picks"] == want["picks"]
