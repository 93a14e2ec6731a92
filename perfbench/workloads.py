"""Instances, operations and reference checks of the planner benchmark.

Each workload is a fixed list of operations. One pass runs every
operation once, in a closed loop with a single caller; the benchmark
repeats passes for the requested time. An operation is one call a user
of ehcalloc would make (a solve, a sweep, an export round trip), and
its result is checked against ``refs.json``, which ``make_refs.py``
computes once with HiGHS and with the built-in solver.

Every call into ehcalloc goes through a module attribute
(``pipeline.solve_allocation``, ``solver.export_mps``), so the tracer
can wrap it there without touching the program.
"""

from __future__ import annotations

import enum
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: The frontier ladder uses the ROADMAP's fixed instance seed, not --seed:
#: whether a synthetic n=15 rung proves within the budget depends on its
#: seed (seeds 2, 4 and 5 miss it), which would make proven_n_max read
#: the seed instead of the code.  --seed only shuffles the rung order.
FRONTIER_SEED = 1
FRONTIER_RUNGS = ([(s, n) for n in (10, 15) for s in ("serial", "mixed", "parallel")]
                  + [("mixed", n) for n in (20, 30, 40)])
#: Wall-time budget of one frontier rung (a full solve_allocation).  It
#: is also each inner solve's time limit, so a hopeless rung stops early.
RUNG_BUDGET_S = 2.5

EXPORT_STRUCTURES = ("serial", "mixed", "parallel")
EXPORT_SIZES = (100, 200, 400)
#: large-export instances come from instance seed ``--seed mod`` this, the
#: seeds whose reference values ``refs.json`` stores.
EXPORT_SEED_POOL = 32

SOLVE_W_REL = 0.5
SWEEP_STEPS = 20
POLICY_LEVEL = 3
REL_TOL = 1e-9



class Outcome(enum.Enum):
    OK = "ok"               # proven optimal or verified, and matches the references
    UNPROVEN = "unproven"   # hit the time limit or the budget (frontier rungs only)
    FAILED = "failed"       # raised, ended infeasible, or disagrees with the references


class Mismatch(Exception):
    """A result disagrees with the stored references."""


@dataclass
class Op:
    label: str
    n_tasks: int
    run: Callable[[], Any]
    check: Callable[[Any], None]
    budget_s: float | None = None


def close(value: float | None, ref: float, what: str) -> None:
    if value is None or not math.isfinite(value) or \
            abs(value - ref) > REL_TOL * max(1.0, abs(ref)):
        raise Mismatch(f"{what}: {value!r} != reference {ref!r}")


def equal(value, ref, what: str) -> None:
    if value != ref:
        raise Mismatch(f"{what}: {value!r} != reference {ref!r}")


def load_refs(path: Path) -> dict:
    return json.loads(path.read_text())


def cloud_picks(reg, cloud: str) -> list[int]:
    """Fixed plan of large-export: every copy of every task on the cloud.

    The cloud has no memory, storage or energy budget that binds and
    cloud-to-cloud arcs cost no energy, so this plan is feasible in any
    correct model; verify must report no violation.
    """
    picks = []
    for t in reg.graph.task_ids:
        hit = [i for i in reg.candidates_for_task(t)
               if reg.candidates[i].primary == cloud
               and all(r == cloud for r in reg.candidates[i].replicas)]
        if not hit:
            raise Mismatch(f"task {t} has no all-cloud candidate")
        picks.append(hit[0])
    return picks


class Workload:
    """Inputs are built by ``setup`` (timed as set-up); ``ops`` lists one pass."""

    def __init__(self, name: str, seed: int, tiny: bool, refs: dict, lib,
                 tracer, scratch: Path) -> None:
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.refs = refs
        self.lib = lib            # ehcalloc modules; functions are looked up per call
        self.tracer = tracer      # opens the benchmark's own spans
        self.scratch = scratch    # directory for the MPS files
        self.inputs: Any = None

    @property
    def params(self) -> dict:
        """What the run records about its inputs, next to the seed."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def _validated(self, graph, topology):
        report = self.lib.model.validate_workflow(graph, topology)
        if not report.ok:
            raise ValueError("invalid workflow: " + "; ".join(report.violations))
        return graph


def check_plan(plan, ref: dict, what: str) -> None:
    equal(plan.status, "optimal", f"{what} status")
    for key, value in ref["bounds"].items():
        close(plan.bounds[key], value, f"{what} bound {key}")
    close(plan.g, ref["g"], f"{what} g")
    if ref.get("picks") is not None:
        equal([row["candidate"] for row in plan.tasks], ref["picks"], f"{what} picks")


class FixtureSweep(Workload):
    """One solve at w_rel=0.5, then the full weight sweep, on the fixture."""

    @property
    def params(self) -> dict:
        return {"w_rel": SOLVE_W_REL, "steps": self.steps, "workers": 1,
                "policy_level": POLICY_LEVEL}

    @property
    def steps(self) -> int:
        return 2 if self.tiny else SWEEP_STEPS

    def setup(self) -> None:
        fx = self.lib.fixtures
        topology = fx.reference_topology()
        graph = self._validated(fx.inspection_workflow(), topology)
        self.inputs = (topology, graph, fx.default_policy(POLICY_LEVEL))

    def ops(self) -> list[Op]:
        e = self.lib
        topology, graph, policy = self.inputs
        ref = self.refs["fixture"]["solve"]
        ref_rows = self.refs["fixture"]["sweep"]
        stride = SWEEP_STEPS // self.steps

        def solve():
            weights = e.bilp.ObjectiveWeights(SOLVE_W_REL, 1.0 - SOLVE_W_REL)
            plan, _ = e.pipeline.solve_allocation(topology, graph, policy, weights)
            with self.tracer.span("pipeline.serialize"):
                text = json.dumps(plan.to_json_dict(), indent=2) + "\n"
            return plan, text

        def check_solve(result):
            plan, text = result
            check_plan(plan, ref, "fixture solve")
            equal(json.loads(text)["objective"]["g"], plan.g, "plan JSON g")

        def sweep():
            result = e.pipeline.sweep(topology, graph, policy, steps=self.steps, workers=1)
            with self.tracer.span("pipeline.serialize"):
                text = result.to_csv()
            return result, text

        def check_sweep(result):
            result, text = result
            equal(len(result.rows), self.steps + 1, "sweep rows")
            equal(text.count("\n"), self.steps + 2, "sweep CSV lines")
            for i, row in enumerate(result.rows):
                ref = ref_rows[i * stride]
                what = f"sweep w_rel={ref['row']['w_rel']}"
                equal(row["status"], "optimal", f"{what} status")
                close(row["g"], ref["g"], f"{what} g")
                for key, value in ref["row"].items():
                    if isinstance(value, float):
                        close(row[key], value, f"{what} {key}")
                    else:
                        equal(row[key], value, f"{what} {key}")

        n = len(graph.tasks)
        return [Op("solve", n, solve, check_solve), Op("sweep", n, sweep, check_sweep)]


class SynthFrontier(Workload):
    @property
    def params(self) -> dict:
        return {"instance_seed": FRONTIER_SEED, "rung_budget_s": RUNG_BUDGET_S,
                "rungs": [f"{s}-{n}" for s, n in self.rungs]}

    @property
    def rungs(self) -> list[tuple[str, int]]:
        rungs = [r for r in FRONTIER_RUNGS if not self.tiny or r[1] == 10]
        random.Random(self.seed).shuffle(rungs)
        return rungs

    def setup(self) -> None:
        e = self.lib
        topology = e.fixtures.reference_topology()
        devices = tuple(topology.devices)
        graphs = {}
        for structure, n in self.rungs:
            spec = e.synthgen.GenSpec(task_count=n, structure=structure, seed=FRONTIER_SEED)
            graphs[(structure, n)] = self._validated(e.synthgen.generate(spec, devices),
                                                     topology)
        self.inputs = (topology, e.fixtures.default_policy(POLICY_LEVEL), graphs)

    def ops(self) -> list[Op]:
        e = self.lib
        topology, policy, graphs = self.inputs
        ops = []
        for (structure, n), graph in graphs.items():
            label = f"{structure}-{n}"
            ref = self.refs["frontier"][label]

            def run(graph=graph):
                weights = e.bilp.ObjectiveWeights(SOLVE_W_REL, 1.0 - SOLVE_W_REL)
                options = e.solver.SolverOptions(time_limit=RUNG_BUDGET_S)
                plan, _ = e.pipeline.solve_allocation(topology, graph, policy,
                                                      weights, options)
                return plan

            def check(plan, ref=ref, label=label):
                if plan.status == "time_limit":
                    raise e.bilp.TimeLimitError(f"rung {label}: weighted solve")
                check_plan(plan, ref, f"rung {label}")

            ops.append(Op(label, n, run, check, RUNG_BUDGET_S))
        return ops


class LargeExport(Workload):
    @property
    def instance_seed(self) -> int:
        return self.seed % EXPORT_SEED_POOL

    @property
    def sizes(self) -> tuple[int, ...]:
        return EXPORT_SIZES[:1] if self.tiny else EXPORT_SIZES

    @property
    def params(self) -> dict:
        return {"instance_seed": self.instance_seed, "sizes": list(self.sizes),
                "structures": list(EXPORT_STRUCTURES), "objective": "lat_max",
                "plan": "all copies on the cloud"}

    def setup(self) -> None:
        e = self.lib
        topology = e.fixtures.reference_topology()
        devices = tuple(topology.devices)
        graphs = {}
        for n in self.sizes:
            for structure in EXPORT_STRUCTURES:
                spec = e.synthgen.GenSpec(task_count=n, structure=structure,
                                          seed=self.instance_seed)
                graphs[(structure, n)] = self._validated(
                    e.synthgen.generate(spec, devices), topology)
        self.inputs = (topology, e.fixtures.default_policy(POLICY_LEVEL), graphs)

    def ops(self) -> list[Op]:
        e = self.lib
        topology, policy, graphs = self.inputs
        cloud = topology.devices[-1].id
        refs = self.refs["export"][str(self.instance_seed)]
        ops = []
        for (structure, n), graph in graphs.items():
            label = f"{structure}-{n}"

            def run(graph=graph):
                reg, model = e.pipeline.prepare(topology, graph, policy)
                model = model.with_objective(
                    e.bilp.objective_latency(reg, model.catalog), objective_kind="lat_max")
                path = e.solver.export_mps(model, self.scratch / "large-export.mps")
                clone = e.solver.read_mps(path)
                x = e.pipeline.assignment_from_picks(reg, model, cloud_picks(reg, cloud))
                return (model, clone, x, e.solver.verify(model, x),
                        e.solver.verify(clone, x))

            def check(result, ref=refs[label], label=label):
                model, clone, x, issues, clone_issues = result
                equal(issues, [], f"{label} verify")
                equal(clone_issues, [], f"{label} verify after read-back")
                equal(clone.catalog.names, model.catalog.names, f"{label} read-back columns")
                equal(clone.objective, {v: c for v, c in model.objective.items() if c},
                      f"{label} read-back objective")
                equal([(r.coeffs, r.sense, r.rhs) for r in clone.constraints],
                      [({v: c for v, c in r.coeffs.items() if c}, r.sense, r.rhs)
                       for r in model.constraints], f"{label} read-back rows")
                close(model.objective_value(x), ref, f"{label} plan latency")
                close(clone.objective_value(x), ref, f"{label} plan latency after read-back")

            ops.append(Op(label, n, run, check))
        return ops


CLASSES = {
    "fixture-sweep": FixtureSweep,
    "synth-frontier": SynthFrontier,
    "large-export": LargeExport,
}


def make(name: str, seed: int, tiny: bool, refs: dict, lib, tracer,
         scratch: Path) -> Workload:
    return CLASSES[name](name, seed, tiny, refs, lib, tracer, scratch)
