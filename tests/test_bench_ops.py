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
