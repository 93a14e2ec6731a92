"""End-to-end allocation: build, normalize, solve, report.

A solve runs the full stack: expand the workflow, assemble the BILP,
compute normalization bounds with four auxiliary solves, scalarize with
the requested weights, solve exactly, and package the result as an
:class:`AllocationPlan`.  Plans serialize to JSON and sweeps to CSV with
stable field order and no timestamps, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bilp import (
    BilpModel,
    NormalizationBounds,
    ObjectiveWeights,
    build_model,
    weighted_objective,
    normalization_bounds,
)
from .model import CriticalityPolicy, Topology, WorkflowGraph
from .solver import (
    Solution,
    SolverOptions,
    deadline_of,
    solve_all,
    solve_builtin,
    time_left,
)
from .transform import CandidateGraph, CandidateNode, EgArc, build_eg, build_reg


@dataclass
class PipelineContext:
    """Everything a solve produced, for callers that want to dig deeper."""

    reg: CandidateGraph
    model: BilpModel
    bounds: NormalizationBounds
    weighted: BilpModel | None = None
    solution: Solution | None = None


@dataclass
class AllocationPlan:
    status: str
    criticality_level: int
    w_rel: float
    w_lat: float
    g: float | None = None
    f_rel: float | None = None
    f_lat: float | None = None
    f_rel_norm: float | None = None
    f_lat_norm: float | None = None
    reliability: float | None = None
    bounds: dict = field(default_factory=dict)
    tasks: list[dict] = field(default_factory=list)
    arcs: list[dict] = field(default_factory=list)
    devices: list[dict] = field(default_factory=list)
    solver_nodes: int = 0
    # kept off to_json_dict: written artifacts must be byte-identical
    # across repeat runs
    wall_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "criticality_level": self.criticality_level,
            "weights": {"w_rel": self.w_rel, "w_lat": self.w_lat},
            "objective": {
                "g": self.g,
                "f_rel": self.f_rel,
                "f_lat_s": self.f_lat,
                "f_rel_norm": self.f_rel_norm,
                "f_lat_norm": self.f_lat_norm,
                "reliability": self.reliability,
            },
            "bounds": self.bounds,
            "tasks": self.tasks,
            "arcs": self.arcs,
            "devices": self.devices,
            "solver": {"nodes": self.solver_nodes, "status": self.status},
        }


def prepare(topology: Topology, graph: WorkflowGraph,
            policy: CriticalityPolicy) -> tuple[CandidateGraph, BilpModel]:
    eg = build_eg(graph, topology)
    reg = build_reg(eg, policy)
    return reg, build_model(reg)


def assignment_from_picks(reg: CandidateGraph, model: BilpModel,
                          picks: list[int]) -> list[int]:
    """Full binary vector implied by one candidate index per task.

    Inverse of ``model.catalog.picks``: sets the candidate variable of
    each pick and activates the unique arc between each pair of picks.
    """
    return model.catalog.vector(picks)


def _device_usage(reg: CandidateGraph, cands: list[CandidateNode],
                  arcs: list[EgArc]) -> list[dict]:
    """Per-device budget usage of the chosen candidates and arcs, summed
    from ``0.0`` replica slot by replica slot, then arc by arc."""
    usage: dict[str, dict] = {}
    for d in reg.topology.devices:
        usage[d.id] = {
            "device": d.id,
            "memory_bytes": 0.0, "memory_budget_bytes": d.memory_budget,
            "storage_bytes": 0.0, "storage_budget_bytes": d.storage_budget,
            "energy_j": 0.0,
            "energy_budget_j": None if d.energy_unbounded else d.energy_budget,
        }
    for cand in cands:
        task = reg.graph.task(cand.task)
        for _slot, dev, joules in cand.per_replica_energy:
            row = usage[dev]
            row["memory_bytes"] += task.memory
            row["storage_bytes"] += task.storage
            row["energy_j"] += joules
    for arc in arcs:
        for dev, joules in arc.per_device_energy:
            usage[dev]["energy_j"] += joules
    return list(usage.values())


def _picked(reg: CandidateGraph, model: BilpModel, weights: ObjectiveWeights,
            bounds: NormalizationBounds,
            choices: list[int]) -> tuple[list[CandidateNode], list[EgArc], dict]:
    """The candidates and arcs that one candidate position per task picks,
    and the objective values of that pick, keyed as a sweep row keys them.

    Reliability is one product, then one log; latency is summed in task
    order, then in workflow-arc order, the order the oracle sums in.
    """
    cat = model.catalog
    cands = [reg.candidates[options[k]] for options, k in zip(cat.options, choices)]
    # the arc variable each workflow arc's two picks set; arc variables
    # follow the candidates in catalog order (build_catalog)
    chosen = sorted(src[cands[i].primary][cands[j].primary]
                    for (i, j), (src, _) in zip(cat.pairs, cat.ends))
    chosen_arcs = [reg.arcs[var - len(cat.candidates)] for var in chosen]
    r_total = 1.0
    f_lat = 0.0
    for cand in cands:
        r_total *= cand.reliability
        f_lat += cand.latency
    for arc in chosen_arcs:
        f_lat += arc.latency
    f_rel = math.log(r_total)
    f_rel_norm, f_lat_norm = bounds.normalize_rel(f_rel), bounds.normalize_lat(f_lat)
    return cands, chosen_arcs, {
        "g": weights.w_rel * f_rel_norm - weights.w_lat * f_lat_norm,
        "f_rel": f_rel, "f_lat_s": f_lat, "f_rel_norm": f_rel_norm, "f_lat_norm": f_lat_norm,
        "reliability": math.exp(f_rel)}


def extract_plan(
    reg: CandidateGraph,
    model: BilpModel,
    weights: ObjectiveWeights,
    bounds: NormalizationBounds,
    solution: Solution,
) -> AllocationPlan:
    plan = AllocationPlan(
        status=solution.status.value,
        criticality_level=reg.policy.level,
        w_rel=weights.w_rel,
        w_lat=weights.w_lat,
        bounds=bounds.to_json_dict(),
        solver_nodes=solution.nodes,
        wall_time_s=solution.wall_time,
    )
    if solution.choices is None:
        return plan
    cands, chosen_arcs, values = _picked(reg, model, weights, bounds, solution.choices)
    plan.g, plan.f_rel, plan.f_lat = values["g"], values["f_rel"], values["f_lat_s"]
    plan.f_rel_norm, plan.f_lat_norm = values["f_rel_norm"], values["f_lat_norm"]
    plan.reliability = values["reliability"]

    for cand in cands:
        plan.tasks.append({
            "task": cand.task,
            "candidate": cand.key,
            "primary": cand.primary,
            "mode": cand.mode.name,
            "replicas": list(cand.replicas),
            "latency_s": cand.latency,
            "reliability": cand.reliability,
        })
    for arc in chosen_arcs:
        plan.arcs.append({
            "src": arc.src_task, "dst": arc.dst_task,
            "src_device": arc.src_dev, "dst_device": arc.dst_dev,
            "latency_s": arc.latency,
        })
    plan.devices = _device_usage(reg, cands, chosen_arcs)
    return plan


def solve_allocation(
    topology: Topology,
    graph: WorkflowGraph,
    policy: CriticalityPolicy,
    weights: ObjectiveWeights,
    options: SolverOptions | None = None,
    bounds: NormalizationBounds | None = None,
) -> tuple[AllocationPlan, PipelineContext]:
    """Full pipeline for one weight vector.

    The time limit in ``options`` bounds the whole call.  Raises
    InfeasibleError if the model has no feasible assignment (the
    normalization solves detect that before the weighted solve runs).
    """
    deadline = deadline_of(options)
    reg, model = prepare(topology, graph, policy)
    return _solve_prepared(reg, model, weights, time_left(deadline), bounds)


def _solve_prepared(
    reg: CandidateGraph,
    model: BilpModel,
    weights: ObjectiveWeights,
    options: SolverOptions | None,
    bounds: NormalizationBounds | None,
) -> tuple[AllocationPlan, PipelineContext]:
    """:func:`solve_allocation` on the output of :func:`prepare`."""
    deadline = deadline_of(options)
    if bounds is None:
        bounds = normalization_bounds(reg, model, time_left(deadline))
    weighted = weighted_objective(reg, model, weights, bounds)
    solution = solve_builtin(weighted, time_left(deadline))
    ctx = PipelineContext(reg, model, bounds, weighted, solution)
    return extract_plan(reg, model, weights, bounds, solution), ctx


@dataclass
class SweepResult:
    device_ids: list[str]
    rows: list[dict]

    def to_csv(self) -> str:
        cols = ["w_rel", "w_lat", "status", *_ROW_VALUES]
        cols += [f"pct_{d}" for d in self.device_ids]
        for p in self.device_ids:
            cols += [f"rep_{p}_{r}" for r in self.device_ids]
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row.get(c)) for c in cols))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {"devices": self.device_ids, "rows": self.rows}


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _share_stats(device_ids: list[str], cands: list[CandidateNode]) -> dict:
    """Per-device replica shares and primary-to-replica placement counts
    of the picked candidates; a candidate's primary and replicas are its
    slots."""
    slots = {d: 0 for d in device_ids}
    matrix = {p: {r: 0 for r in device_ids} for p in device_ids}
    for cand in cands:
        slots[cand.primary] += 1
        for r in cand.replicas:
            slots[r] += 1
            matrix[cand.primary][r] += 1
    total = sum(slots.values())
    out = {f"pct_{d}": round(100.0 * slots[d] / total, 10) for d in device_ids}
    for p in device_ids:
        for r in device_ids:
            out[f"rep_{p}_{r}"] = matrix[p][r]
    return out


def sweep(
    topology: Topology,
    graph: WorkflowGraph,
    policy: CriticalityPolicy,
    steps: int = 20,
    options: SolverOptions | None = None,
    workers: int = 1,
) -> SweepResult:
    """Solve across the weight grid w_rel = 0, 1/steps, ..., 1.

    Normalization bounds are computed once and shared by every point, so
    the normalized objectives of all rows live on the same scale.  The
    time limit in ``options`` bounds the whole sweep: a point reached
    after it ran out reports ``time_limit``.

    ``workers`` accepts only ``1``; any other value is refused before
    anything is prepared.  The points are solved in this process, batch
    by batch: a process pool measured slower at every size, since the
    normalization solves run here anyway and a pooled point loses the
    batched root relaxation.  The keyword stays only because the bench
    harness (``perfbench/``) passes ``workers=1``.
    """
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    deadline = deadline_of(options)
    reg, model = prepare(topology, graph, policy)
    bounds = normalization_bounds(reg, model, time_left(deadline))
    grid = [i / steps for i in range(steps + 1)]
    return SweepResult([d.id for d in topology.devices],
                       _sweep_points(reg, model, deadline, bounds, grid))


def _sweep_points(reg: CandidateGraph, model: BilpModel, deadline: float | None,
                  bounds: NormalizationBounds, grid: list[float]) -> list[dict]:
    """The sweep's rows at ``w_rel`` in ``grid``, in order; the weighted
    objectives are built and solved batch by batch by :func:`solve_all`.
    A row holds what :func:`extract_plan` would report of its solution,
    read off the picks without building the plan."""
    weights = [ObjectiveWeights(w_rel=w, w_lat=1.0 - w) for w in grid]
    models = (weighted_objective(reg, model, ws, bounds) for ws in weights)
    rows = []
    for ws, solution in zip(weights, solve_all(models, time_left(deadline))):
        row = {"w_rel": ws.w_rel, "w_lat": ws.w_lat, "status": solution.status.value}
        cands, values = [], dict.fromkeys(_ROW_VALUES)
        if solution.choices is not None:
            cands, _, values = _picked(reg, model, ws, bounds, solution.choices)
        row.update(values)
        if cands:
            row.update(_share_stats(reg.topology.device_ids, cands))
        rows.append(row)
    return rows


#: the objective values of a sweep row, in its column order
_ROW_VALUES = ("g", "f_rel", "f_lat_s", "f_rel_norm", "f_lat_norm", "reliability")


def restrict_to_device(graph: WorkflowGraph, device_id: str) -> WorkflowGraph:
    """Pin every freely placeable task to one device (pinned tasks keep
    their pin); the single-device baseline graph."""
    tasks = [t if len(t.allowed_devices) == 1 else t.pinned(device_id) for t in graph.tasks]
    return WorkflowGraph(tasks, list(graph.arcs))


def baselines(
    topology: Topology,
    graph: WorkflowGraph,
    policy: CriticalityPolicy,
    weights: ObjectiveWeights,
    options: SolverOptions | None = None,
) -> dict:
    """Unrestricted optimum versus every single-device restriction.

    All plans are normalized with the unrestricted bounds so their g
    values are comparable; a baseline whose restriction cannot be
    satisfied is reported infeasible.  The time limit in ``options``
    bounds the whole call.
    """
    deadline = deadline_of(options)
    reg, model = prepare(topology, graph, policy)
    bounds = normalization_bounds(reg, model, time_left(deadline))
    unrestricted, _ = _solve_prepared(reg, model, weights, time_left(deadline), bounds)
    per_device: dict[str, AllocationPlan] = {}
    for d in topology.devices:
        try:
            restricted = restrict_to_device(graph, d.id)
        except ValueError:          # some task cannot run on d
            per_device[d.id] = AllocationPlan(status="infeasible",
                                              criticality_level=policy.level,
                                              w_rel=weights.w_rel, w_lat=weights.w_lat,
                                              bounds=bounds.to_json_dict())
            continue
        per_device[d.id], _ = solve_allocation(topology, restricted, policy, weights,
                                               time_left(deadline), bounds)
    return {"unrestricted": unrestricted, "baselines": per_device}
