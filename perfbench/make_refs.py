"""Compute the benchmark's reference answers into ``refs.json``.

    python3 perfbench/make_refs.py            # from the root of a checkout

Needs scipy (HiGHS through ``scipy.optimize.milp``); the benchmark itself
does not.  For every instance that is solved it stores the four
normalization bounds and the weighted objective g as HiGHS finds them on
the same model, and the built-in solver's picks wherever the built-in
solver proves the instance today.  For large-export, which never
searches, it stores the latency of the fixed all-cloud plan, summed
independently of the model by ``oracle.raw_objectives``.  It stops with
an error if HiGHS and the built-in solver disagree.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import optimize, sparse

import workloads as W

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ehcalloc import bilp, fixtures, oracle, pipeline, solver, synthgen  # noqa: E402

KINDS = (("rel_max", True), ("rel_min", False), ("lat_max", True), ("lat_min", False))


def highs_max(model: bilp.BilpModel) -> float:
    """Optimum of a BILP by HiGHS, evaluated on the rounded 0/1 point."""
    n = model.n_vars
    c = np.zeros(n)
    for v, coef in model.objective.items():
        c[v] = -coef                                  # milp minimizes
    # HiGHS stops within an absolute gap of 1e-6 that scipy does not expose;
    # scaling the objective up makes that gap negligible
    c *= 1e6 / max(1e-300, float(np.abs(c).max()))
    rows, cols, vals, lo, hi = [], [], [], [], []
    for i, row in enumerate(model.constraints):
        for v, coef in row.coeffs.items():
            rows.append(i)
            cols.append(v)
            vals.append(coef)
        lo.append(-np.inf if row.sense == "<=" else row.rhs)
        hi.append(row.rhs)
    a = sparse.csr_array((vals, (rows, cols)), shape=(len(model.constraints), n))
    res = optimize.milp(c, constraints=optimize.LinearConstraint(a, lo, hi),
                        integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
                        options={"mip_rel_gap": 0.0, "time_limit": 1800.0})
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    x = [int(round(v)) for v in res.x]
    issues = solver.verify(model, x)
    if issues:
        raise RuntimeError(f"HiGHS point violates rows: {issues[:3]}")
    return model.objective_value(x)


def highs_bounds(reg, model) -> bilp.NormalizationBounds:
    coeffs = {"rel": bilp.objective_reliability(reg, model.catalog),
              "lat": bilp.objective_latency(reg, model.catalog)}
    values = {}
    for kind, maximize in KINDS:
        sign = 1.0 if maximize else -1.0
        aux = model.with_objective({v: sign * c for v, c in coeffs[kind[:3]].items()},
                                   objective_kind=kind)
        values[kind] = sign * highs_max(aux)
    return bilp.NormalizationBounds(**values)


def highs_g(reg, model, bounds, w_rel: float) -> float:
    weights = bilp.ObjectiveWeights(w_rel, 1.0 - w_rel)
    return highs_max(bilp.weighted_objective(reg, model, weights, bounds))


def agree(builtin: float, ref: float, what: str) -> None:
    try:
        W.close(builtin, ref, what)
    except W.Mismatch as exc:
        sys.exit(f"built-in solver and HiGHS disagree: {exc}")


def solved_ref(topology, graph, policy, time_limit: float | None) -> dict:
    reg, model = pipeline.prepare(topology, graph, policy)
    bounds = highs_bounds(reg, model)
    ref = {"bounds": bounds.to_json_dict(),
           "g": highs_g(reg, model, bounds, W.SOLVE_W_REL), "picks": None}
    weights = bilp.ObjectiveWeights(W.SOLVE_W_REL, 1.0 - W.SOLVE_W_REL)
    try:
        plan, _ = pipeline.solve_allocation(topology, graph, policy, weights,
                                            solver.SolverOptions(time_limit=time_limit))
    except bilp.TimeLimitError:
        return ref
    if plan.status == "optimal":
        agree(plan.g, ref["g"], "g")
        for key, value in ref["bounds"].items():
            agree(plan.bounds[key], value, key)
        ref["picks"] = [row["candidate"] for row in plan.tasks]
    return ref


def fixture_refs() -> dict:
    topology = fixtures.reference_topology()
    graph = fixtures.inspection_workflow()
    policy = fixtures.default_policy(W.POLICY_LEVEL)
    out = {"solve": solved_ref(topology, graph, policy, None), "sweep": []}
    reg, model = pipeline.prepare(topology, graph, policy)
    bounds = bilp.NormalizationBounds(**out["solve"]["bounds"])
    result = pipeline.sweep(topology, graph, policy, steps=W.SWEEP_STEPS, workers=1)
    for row in result.rows:
        g = highs_g(reg, model, bounds, row["w_rel"])
        agree(row["g"], g, f"sweep g at w_rel={row['w_rel']}")
        out["sweep"].append({"g": g, "row": row})
    return out


def frontier_refs() -> dict:
    topology = fixtures.reference_topology()
    policy = fixtures.default_policy(W.POLICY_LEVEL)
    out = {}
    for structure, n in W.FRONTIER_RUNGS:
        spec = synthgen.GenSpec(task_count=n, structure=structure, seed=W.FRONTIER_SEED)
        graph = synthgen.generate(spec, tuple(topology.devices))
        t0 = time.perf_counter()
        out[f"{structure}-{n}"] = solved_ref(topology, graph, policy, 30.0)
        print(f"frontier {structure}-{n}: {time.perf_counter() - t0:.1f} s, "
              f"picks {'stored' if out[f'{structure}-{n}']['picks'] else 'unproven'}",
              file=sys.stderr)
    return out


def export_refs() -> dict:
    topology = fixtures.reference_topology()
    cloud = topology.devices[-1].id
    policy = fixtures.default_policy(W.POLICY_LEVEL)
    out = {}
    for seed in range(W.EXPORT_SEED_POOL):
        out[str(seed)] = per_seed = {}
        for n in W.EXPORT_SIZES:
            for structure in W.EXPORT_STRUCTURES:
                spec = synthgen.GenSpec(task_count=n, structure=structure, seed=seed)
                graph = synthgen.generate(spec, tuple(topology.devices))
                reg = pipeline.build_reg(pipeline.build_eg(graph, topology), policy)
                cands = [reg.candidates[i] for i in W.cloud_picks(reg, cloud)]
                per_seed[f"{structure}-{n}"] = oracle.raw_objectives(reg, cands)[1]
    return out


def main() -> int:
    refs = {
        "generated_by": f"perfbench/make_refs.py with scipy {scipy.__version__} (HiGHS)",
        "fixture": fixture_refs(),
        "frontier": frontier_refs(),
        "export": export_refs(),
    }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
