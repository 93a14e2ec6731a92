"""Release gate: end-to-end behavioural guarantees.

Every test prints exactly one PASS/FAIL summary line straight to the
terminal (bypassing capture) so a full suite run shows the gate status
at a glance, then asserts.  Runtime budgets are asserted alongside the
functional checks; the whole gate is designed to finish in well under
two minutes on commodity hardware.
"""

import dataclasses
import json
import math
import time

import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from conftest import LIGHT_TARGETS, STRUCTURES, scipy_milp, small_instance
from ehcalloc.bilp import (
    BilpModel,
    ObjectiveWeights,
    model_stats,
    normalization_bounds,
    weighted_objective,
)
from ehcalloc.cli import EXIT_OK, main
from ehcalloc.io import dump_workflow
from ehcalloc.oracle import brute_force, monte_carlo_reliability
from ehcalloc.pipeline import (
    baselines,
    prepare,
    solve_allocation,
    sweep,
)
from ehcalloc.solver import read_mps, solve_builtin

HALF = ObjectiveWeights(0.5, 0.5)


@pytest.fixture
def report(capfd):
    def _report(num: int, name: str, ok: bool, detail: str = ""):
        with capfd.disabled():
            tail = f": {detail}" if detail else ""
            print(f"{'PASS' if ok else 'FAIL'} {num:02d} {name}{tail}",
                  flush=True)
    return _report


def test_01_redundancy_threshold_table(report):
    t0 = time.perf_counter()
    got = {level: e.default_policy(level).thresholds() for level in (1, 2, 3)}
    dt = time.perf_counter() - t0
    want = {1: (0.06, 0.18), 2: (0.03, 0.09), 3: (0.02, 0.06)}
    ok = got == want and dt < 1e-3
    report(1, "redundancy thresholds", ok,
           f"levels 1-3 -> {sorted(got.values(), reverse=True)} in {dt * 1e3:.3f} ms")
    assert got == want          # exact, tolerance zero
    assert dt < 1e-3


def test_02_expansion_sizes_on_the_bundled_fixture(report, topology, workflow):
    e.build_eg(workflow, topology)          # warm path
    t0 = time.perf_counter()
    eg = e.build_eg(workflow, topology)
    dt = time.perf_counter() - t0
    summary = e.eg_summary(eg)
    got = (summary["nodes"], summary["arcs"])
    ok = got == (41, 111) and dt < 0.010
    report(2, "expansion sizes", ok,
           f"15-task fixture -> {got[0]} nodes / {got[1]} arcs "
           f"in {dt * 1e3:.2f} ms")
    assert got == (41, 111)     # exact, tolerance zero
    assert dt < 0.010


def test_03_worst_case_growth_bound(report, topology):
    policy = e.default_policy(3)
    devices = tuple(topology.devices)
    t0 = time.perf_counter()
    bad: list[str] = []
    for seed in range(20):
        n = 2 + (seed * 7) % 49                     # 2..50
        spec = sg.GenSpec(task_count=n, structure=STRUCTURES[seed % 3],
                          seed=seed)
        graph = sg.generate(spec, devices)
        # force every task into triple execution everywhere
        tasks = [dataclasses.replace(
            t, vulnerability={d.id: 0.5 for d in devices}) for t in graph.tasks]
        forced = e.WorkflowGraph(tasks, list(graph.arcs))
        reg = e.build_reg(e.build_eg(forced, topology), policy)
        summary = e.reg_summary(reg)
        n_arcs = len(list(forced.arcs))
        if summary["candidates"] != 18 * n or summary["arcs"] != 9 * n_arcs:
            bad.append(f"seed {seed}: {summary['candidates']}/{18 * n} "
                       f"cands, {summary['arcs']}/{9 * n_arcs} arcs")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    report(3, "worst-case growth", ok,
           f"20 all-triple instances match 18n / 9|A| in {dt:.2f} s"
           if not bad else "; ".join(bad))
    assert not bad
    assert dt < 1.0


def test_04_exhaustive_agreement_with_binding_budgets(report, topology):
    t0 = time.perf_counter()
    mismatches: list[str] = []
    n_binding = 0
    total = 0
    for seed in range(60):
        if total >= 50:
            break
        topo, graph, policy = small_instance(topology, seed)
        reg, model = prepare(topo, graph, policy)
        space = math.prod(len(reg.candidates_for_task(t))
                          for t in reg.graph.task_ids)
        if space > 120_000:
            continue
        total += 1
        bounds = normalization_bounds(reg, model, None)
        weighted = weighted_objective(reg, model, HALF, bounds)
        sol = solve_builtin(weighted)
        ref = brute_force(reg, HALF, bounds)
        agree = (sol.status.value == ref.status
                 and (ref.status != "optimal"
                      or (math.isclose(sol.objective, ref.objective,
                                       rel_tol=1e-9, abs_tol=1e-12)
                          and list(sol.choices) == list(ref.choices))))
        if not agree:
            mismatches.append(f"seed {seed}")
        # a budget row binds when dropping all of them changes the optimum
        free_rows = [r for r in weighted.constraints
                     if r.tag.split("[", 1)[0] not in ("memory", "storage",
                                                       "energy")]
        free = solve_builtin(BilpModel(weighted.catalog, free_rows,
                                       weighted.objective,
                                       weighted.objective_offset,
                                       weighted.metadata))
        if (sol.objective is None or free.objective > sol.objective + 1e-12
                or free.choices != sol.choices):
            n_binding += 1
    dt = time.perf_counter() - t0
    ok = (total >= 50 and not mismatches and n_binding >= 0.20 * total
          and dt < 60.0)
    report(4, "exhaustive agreement", ok,
           f"{total - len(mismatches)}/{total} optima+tie-breaks match, "
           f"{n_binding} with binding budgets, {dt:.1f} s")
    assert total >= 50
    assert not mismatches, mismatches
    assert n_binding >= 0.20 * total
    assert dt < 60.0


def test_05_simulated_reliability_matches_the_model(report, topology,
                                                    workflow, policy):
    t0 = time.perf_counter()
    reg, model = prepare(topology, workflow, policy)
    bounds = normalization_bounds(reg, model, None)
    outside: list[str] = []
    n_plans = 0
    for i in range(21):
        w = i / 20.0
        plan, ctx = solve_allocation(topology, workflow, policy,
                                     ObjectiveWeights(w, 1.0 - w),
                                     bounds=bounds)
        picks = ctx.model.catalog.picks(ctx.solution.assignment)
        p_hat, stderr = monte_carlo_reliability(ctx.reg, picks,
                                                samples=100_000, seed=100 + i)
        n_plans += 1
        if abs(p_hat - plan.reliability) > 3.0 * stderr:
            outside.append(f"w_rel={w}: {p_hat} vs {plan.reliability}")
    dt = time.perf_counter() - t0
    ok = n_plans >= 20 and not outside and dt < 30.0
    report(5, "simulated reliability", ok,
           f"{n_plans} plans within 3 standard errors at 100k samples, "
           f"{dt:.1f} s" if not outside else "; ".join(outside))
    assert n_plans >= 20
    assert not outside, outside
    assert dt < 30.0


def test_06_sweep_shape(report, topology, workflow, policy):
    t0 = time.perf_counter()
    result = sweep(topology, workflow, policy, steps=20)
    dt = time.perf_counter() - t0
    rows = result.rows
    problems: list[str] = []
    if [r["w_rel"] for r in rows] != [i / 20 for i in range(21)]:
        problems.append("grid wrong")
    rels = [r["f_rel"] for r in rows]
    lats = [r["f_lat_s"] for r in rows]
    if not all(b >= a - 1e-12 for a, b in zip(rels, rels[1:])):
        problems.append("f_rel not non-decreasing")
    if not all(b >= a - 1e-12 for a, b in zip(lats, lats[1:])):
        problems.append("f_lat not non-decreasing")
    for r in rows:
        for k in ("f_rel_norm", "f_lat_norm"):
            if not (-1e-9 <= r[k] <= 1.0 + 1e-9):
                problems.append(f"{k}={r[k]} at w_rel={r['w_rel']}")
    if dt >= 120.0:
        problems.append(f"too slow: {dt:.1f} s")
    ok = not problems
    report(6, "sweep shape", ok,
           f"21 points monotone, normalized optima in [0,1], {dt:.1f} s"
           if ok else "; ".join(problems))
    assert not problems, problems


def test_07_baseline_dominance(report, topology, workflow, policy):
    t0 = time.perf_counter()
    problems: list[str] = []

    # bundled fixture: strict improvement in BOTH raw objectives over the
    # worst single-device restriction at equal weights
    fixture = baselines(topology, workflow, policy, HALF)
    best = fixture["unrestricted"]
    feas = [p for p in fixture["baselines"].values() if p.status == "optimal"]
    if not feas:
        problems.append("no feasible baseline on the fixture")
    else:
        worst = min(feas, key=lambda p: p.g)
        for p in feas:
            if best.g < p.g - 1e-9:
                problems.append(f"fixture baseline beats unrestricted: {p.g}")
        if not (best.reliability > worst.reliability + 1e-9
                and best.f_lat < worst.f_lat - 1e-9):
            problems.append("no strict two-objective improvement on the fixture")

    # seeded corpus: dominance must hold on every feasible instance
    checked = 0
    for seed in range(8):
        topo, graph, pol = small_instance(topology, seed)
        result = baselines(topo, graph, pol, HALF)
        un = result["unrestricted"]
        if un.status != "optimal":
            continue
        checked += 1
        for dev, p in result["baselines"].items():
            if p.status == "optimal" and un.g < p.g - 1e-9:
                problems.append(f"seed {seed}: all-on-{dev} beats unrestricted")
    dt = time.perf_counter() - t0
    if dt >= 60.0:
        problems.append(f"too slow: {dt:.1f} s")
    ok = not problems
    report(7, "baseline dominance", ok,
           f"fixture strictly better in both objectives; {checked} corpus "
           f"instances dominated, {dt:.1f} s" if ok else "; ".join(problems))
    assert not problems, problems


def test_08_interchange_round_trip(report, topology, workflow, policy,
                                   tmp_path):
    problems: list[str] = []

    # every enumeration-sized corpus instance plus the bundled fixture
    cases = []
    for seed in range(6):
        topo, graph, pol = small_instance(topology, seed)
        cases.append((f"seed {seed}", topo, graph, pol))
    cases.append(("fixture", topology, workflow, policy))
    clone = None
    for name, topo, graph, pol in cases:
        reg, model = prepare(topo, graph, pol)
        bounds = normalization_bounds(reg, model, None)
        weighted = weighted_objective(reg, model, HALF, bounds)
        path = e.export_mps(weighted, tmp_path / f"{name.replace(' ', '_')}.mps")
        clone = read_mps(path)
        mine, theirs = solve_builtin(weighted), solve_builtin(clone)
        if not math.isclose(mine.objective, theirs.objective,
                            rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{name}: {mine.objective} vs {theirs.objective}")

    # external solver fed from the re-read fixture model, if one is present
    external = "no external solver installed"
    try:
        status, got = scipy_milp(clone)
    except ImportError:
        pass
    else:
        want = solve_builtin(clone).objective
        if status != 0 or not math.isclose(got, want, rel_tol=1e-8,
                                           abs_tol=1e-8):
            problems.append(f"external optimum {got} vs {want}")
        else:
            external = f"external optimum matches ({got:.12f})"

    ok = not problems
    report(8, "interchange round-trip", ok,
           f"{len(cases)} models identical after re-import; {external}"
           if ok else "; ".join(problems))
    assert not problems, problems


def test_09_scale_smoke(report, topology, tmp_path):
    problems: list[str] = []

    spec = sg.GenSpec(task_count=100, structure="mixed", seed=0)
    graph = sg.generate(spec, tuple(topology.devices))
    reg, model = prepare(topology, graph, e.default_policy(3))
    n_vars = model_stats(model)["variables"]["total"]
    # leaner than a per-replica-pair formulation, but the same order
    if not 1_881 <= n_vars <= 188_140:
        problems.append(f"variable count {n_vars} out of range")

    wf_file = tmp_path / "large.json"
    dump_workflow(graph, wf_file)
    t0 = time.perf_counter()
    code = main(["export-mps", "--workflow", str(wf_file),
                 "--objective", "rel-max", "--out",
                 str(tmp_path / "large.mps")])
    t_export = time.perf_counter() - t0
    if code != EXIT_OK or t_export >= 10.0:
        problems.append(f"export exit {code} in {t_export:.1f} s")

    t_solve_max = 0.0
    for structure in STRUCTURES:
        g10 = sg.generate(sg.GenSpec(task_count=10, structure=structure,
                                     seed=1), tuple(topology.devices))
        t0 = time.perf_counter()
        plan, _ = solve_allocation(topology, g10, e.default_policy(3), HALF)
        dt = time.perf_counter() - t0
        t_solve_max = max(t_solve_max, dt)
        if plan.status != "optimal" or dt >= 5.0:
            problems.append(f"{structure}: {plan.status} in {dt:.1f} s")

    ok = not problems
    report(9, "scale smoke", ok,
           f"100-task model {n_vars} variables, export {t_export:.2f} s, "
           f"10-task solves <= {t_solve_max:.2f} s"
           if ok else "; ".join(problems))
    assert not problems, problems


def test_10_determinism(report, tmp_path, capfd):
    paths = {name: tmp_path / name for name in
             ("plan_a.json", "plan_b.json", "sweep_a.csv", "sweep_b.csv")}
    assert main(["solve", "--out", str(paths["plan_a.json"])]) == EXIT_OK
    assert main(["solve", "--out", str(paths["plan_b.json"])]) == EXIT_OK
    assert main(["sweep", "--step", "0.25",
                 "--out", str(paths["sweep_a.csv"])]) == EXIT_OK
    assert main(["sweep", "--step", "0.25",
                 "--out", str(paths["sweep_b.csv"])]) == EXIT_OK
    plans_equal = (paths["plan_a.json"].read_bytes()
                   == paths["plan_b.json"].read_bytes())
    csv_equal = (paths["sweep_a.csv"].read_bytes()
                 == paths["sweep_b.csv"].read_bytes())
    json_equal = (paths["sweep_a.csv"].with_suffix(".json").read_bytes()
                  == paths["sweep_b.csv"].with_suffix(".json").read_bytes())
    ok = plans_equal and csv_equal and json_equal
    with capfd.disabled():
        print(f"{'PASS' if ok else 'FAIL'} 10 determinism: repeated solve and "
              f"sweep runs byte-identical "
              f"(plan={plans_equal}, csv={csv_equal}, json={json_equal})",
              flush=True)
    assert plans_equal and csv_equal and json_equal
