"""End-to-end pipeline: plans, sweeps, baselines, device restriction."""

import hashlib
import json
import math
import time

import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from ehcalloc import oracle, pipeline, solver
from ehcalloc.bilp import (
    ObjectiveWeights,
    TimeLimitError,
    normalization_bounds,
    weighted_objective,
)
from ehcalloc.oracle import monte_carlo_reliability, raw_objectives
from ehcalloc.pipeline import (
    assignment_from_picks,
    baselines,
    prepare,
    restrict_to_device,
    solve_allocation,
    sweep,
)
from ehcalloc.model import TaskSpec, WorkflowGraph
from ehcalloc.solver import verify

HALF = ObjectiveWeights(0.5, 0.5)


@pytest.fixture(scope="module")
def solved(topology, workflow, policy):
    return solve_allocation(topology, workflow, policy, HALF)


class TestSolveAllocation:
    def test_reference_plan_regression(self, solved):
        # values pinned after cross-checking against enumeration on reduced
        # instances and simulation of the reported plan
        plan, _ = solved
        assert plan.status == "optimal"
        assert plan.g == pytest.approx(0.4650087960359758, rel=1e-12)
        assert plan.f_rel == pytest.approx(-0.012066498684580223, rel=1e-12)
        assert plan.reliability == pytest.approx(0.9880060095773695, rel=1e-12)
        assert plan.f_lat == pytest.approx(32.00096475, rel=1e-9)
        assert plan.bounds["rel_min"] == pytest.approx(-0.18331714772309596)
        assert plan.bounds["lat_min"] == pytest.approx(18.50629214)
        assert plan.bounds["lat_max"] == pytest.approx(365.21359598165776)

    def test_plan_tables_are_complete(self, solved, workflow, topology):
        plan, ctx = solved
        assert [row["task"] for row in plan.tasks] == list(workflow.task_ids)
        for row in plan.tasks:
            assert row["mode"] in ("SE", "DE", "TE")
            assert len(row["replicas"]) + 1 == \
                {"SE": 1, "DE": 2, "TE": 3}[row["mode"]]
        assert len(plan.arcs) == len(list(workflow.arcs))
        assert [d["device"] for d in plan.devices] == \
            [d.id for d in topology.devices]

    def test_device_usage_within_budgets(self, solved, topology):
        plan, _ = solved
        for row in plan.devices:
            dev = topology.device(row["device"])
            assert row["memory_bytes"] <= dev.memory_budget * (1 + 1e-9)
            assert row["storage_bytes"] <= dev.storage_budget * (1 + 1e-9)
            if row["energy_budget_j"] is not None:
                assert row["energy_j"] <= row["energy_budget_j"] * (1 + 1e-9)
            else:
                assert row["energy_j"] > 0.0    # tracked even without a cap

    def test_objective_identity(self, solved):
        plan, _ = solved
        assert plan.g == pytest.approx(
            plan.w_rel * plan.f_rel_norm - plan.w_lat * plan.f_lat_norm)
        assert plan.reliability == pytest.approx(math.exp(plan.f_rel))

    def test_simulation_confirms_the_reported_reliability(self, solved):
        plan, ctx = solved
        picks = ctx.model.catalog.picks(ctx.solution.assignment)
        p_hat, stderr = monte_carlo_reliability(ctx.reg, picks,
                                                samples=120_000, seed=5)
        assert abs(p_hat - plan.reliability) <= 3.0 * max(stderr, 1e-6)

    def test_json_dict_omits_wall_time(self, solved):
        plan, _ = solved
        d = plan.to_json_dict()
        flat = json.dumps(d)
        assert "wall_time" not in flat
        assert d["solver"]["nodes"] == plan.solver_nodes

    def test_the_plan_sums_its_own_objectives(self, solved, topology, workflow, policy,
                                              monkeypatch):
        # the oracle is the plan's independent check, so the plan may not use it
        def refuse(*args, **kwargs):
            raise AssertionError("the plan read the oracle")

        monkeypatch.setattr(oracle, "raw_objectives", refuse)
        monkeypatch.setattr(oracle, "_arc_tables", refuse)
        plan, _ = solve_allocation(topology, workflow, policy, HALF)
        assert json.dumps(plan.to_json_dict()) == json.dumps(solved[0].to_json_dict())

    def test_repeat_runs_serialize_identically(self, topology, workflow, policy):
        a, _ = solve_allocation(topology, workflow, policy, HALF)
        b, _ = solve_allocation(topology, workflow, policy, HALF)
        assert json.dumps(a.to_json_dict(), sort_keys=True) \
            == json.dumps(b.to_json_dict(), sort_keys=True)


class TestAssignmentConversions:
    def test_picks_round_trip_through_the_full_vector(self, solved):
        _, ctx = solved
        picks = ctx.model.catalog.picks(ctx.solution.assignment)
        x = assignment_from_picks(ctx.reg, ctx.model, picks)
        assert x == ctx.solution.assignment
        assert verify(ctx.model, x) == []

    def test_raw_objectives_match_the_plan(self, solved):
        plan, ctx = solved
        picks = ctx.model.catalog.picks(ctx.solution.assignment)
        f_rel, f_lat = raw_objectives(
            ctx.reg, [ctx.reg.candidates[i] for i in picks])
        assert f_rel == pytest.approx(plan.f_rel, rel=1e-12)
        assert f_lat == pytest.approx(plan.f_lat, rel=1e-12)

    def test_rejects_wrong_pick_counts(self, solved):
        _, ctx = solved
        picks = ctx.model.catalog.picks(ctx.solution.assignment)
        with pytest.raises(ValueError):
            assignment_from_picks(ctx.reg, ctx.model, picks[:-1])
        with pytest.raises(ValueError):
            assignment_from_picks(ctx.reg, ctx.model, [picks[0]] + picks)


@pytest.fixture(scope="module")
def swept(topology, workflow, policy):
    return sweep(topology, workflow, policy, steps=4)


def no_prepare(*args):
    raise AssertionError("prepare ran")


class TestSweep:
    def test_grid_and_weights(self, swept):
        assert [row["w_rel"] for row in swept.rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for row in swept.rows:
            assert row["w_lat"] == pytest.approx(1.0 - row["w_rel"])
            assert row["status"] == "optimal"

    def test_shared_bounds_keep_normalized_values_in_range(self, swept):
        for row in swept.rows:
            assert -1e-9 <= row["f_rel_norm"] <= 1 + 1e-9
            assert -1e-9 <= row["f_lat_norm"] <= 1 + 1e-9

    def test_extremes_reach_the_bounds(self, swept):
        assert swept.rows[0]["f_lat_norm"] == pytest.approx(0.0, abs=1e-9)
        assert swept.rows[-1]["f_rel_norm"] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_tradeoff_along_the_grid(self, swept):
        rels = [row["reliability"] for row in swept.rows]
        lats = [row["f_lat_s"] for row in swept.rows]
        assert all(b >= a - 1e-12 for a, b in zip(rels, rels[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(lats, lats[1:]))

    def test_share_columns_partition_the_replicas(self, swept, topology):
        ids = [d.id for d in topology.devices]
        for row in swept.rows:
            assert sum(row[f"pct_{d}"] for d in ids) == pytest.approx(100.0)
            assert all(row[f"rep_{p}_{r}"] >= 0 for p in ids for r in ids)

    def test_csv_has_one_line_per_point(self, swept):
        text = swept.to_csv()
        lines = text.strip().split("\n")
        assert len(lines) == 1 + len(swept.rows)
        assert lines[0].startswith("w_rel,w_lat,status,g,")
        # floats print with repr so a reader recovers them exactly
        assert repr(swept.rows[1]["g"]) in lines[2]

    @pytest.mark.parametrize("steps", [0, -1, True])
    def test_steps_must_be_a_positive_integer(self, topology, workflow, policy,
                                              steps, monkeypatch):
        # refused before any model is prepared or solved; True used to
        # run a 2-point sweep
        monkeypatch.setattr(pipeline, "prepare", no_prepare)
        with pytest.raises(ValueError, match="positive integer"):
            sweep(topology, workflow, policy, steps=steps)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_must_be_one(self, topology, workflow, policy, workers, monkeypatch):
        # the points are always solved in this process
        monkeypatch.setattr(pipeline, "prepare", no_prepare)
        with pytest.raises(ValueError, match="workers must be 1"):
            sweep(topology, workflow, policy, steps=2, workers=workers)

    def test_time_limit_bounds_the_whole_sweep(self, topology, policy):
        # each of these 105 solves takes well under the limit, and all of
        # them together well over it; statuses do not matter here
        graph = sg.generate(sg.GenSpec(task_count=20, structure="mixed", seed=1),
                            tuple(topology.devices))
        limit = 0.3
        start = time.perf_counter()
        try:
            sweep(topology, graph, policy, steps=100, options=e.SolverOptions(limit))
        except TimeLimitError:
            pass
        assert time.perf_counter() - start <= 1.1 * limit + 0.25


@pytest.fixture(scope="module")
def compared(topology, workflow, policy):
    return baselines(topology, workflow, policy, HALF)


class TestBaselines:
    def test_unrestricted_dominates_every_baseline(self, compared):
        best = compared["unrestricted"]
        for plan in compared["baselines"].values():
            assert plan.status in ("optimal", "infeasible")
            if plan.status == "optimal":
                assert best.g >= plan.g - 1e-12

    def test_baselines_share_the_unrestricted_bounds(self, compared):
        best = compared["unrestricted"]
        for plan in compared["baselines"].values():
            assert plan.bounds == best.bounds

    def test_single_device_plans_stay_on_that_device(self, compared, workflow):
        pins = {t.id: t.allowed_devices[0] for t in workflow.tasks
                if len(t.allowed_devices) == 1}
        assert pins                      # the bundled workflow pins endpoints
        for dev, plan in compared["baselines"].items():
            if plan.status != "optimal":
                continue
            for row in plan.tasks:
                want = pins.get(row["task"], dev)
                assert row["primary"] == want
                assert all(r == want for r in row["replicas"])

    def test_a_restriction_some_task_cannot_take_is_infeasible(self, topology, policy):
        # t1 may not run on the cloud, so there is no all-on-c plan
        tasks = [TaskSpec(id=t, memory=1e6, storage=1e6, output_size=1e6,
                          allowed_devices=devices,
                          exec_time={d: 1.0 for d in devices},
                          power={d: 2.0 for d in devices},
                          vulnerability={d: 0.01 for d in devices})
                 for t, devices in [("t1", ("e", "h")), ("t2", ("e", "h", "c"))]]
        result = baselines(topology, WorkflowGraph(tasks, [("t1", "t2")]), policy, HALF)
        status = {d: plan.status for d, plan in result["baselines"].items()}
        assert status == {"e": "optimal", "h": "optimal", "c": "infeasible"}
        assert result["baselines"]["c"].bounds == result["unrestricted"].bounds

    def test_a_solver_fault_is_not_reported_as_infeasible(self, topology, workflow,
                                                          policy, monkeypatch):
        def faulty(*args):
            raise ValueError("solution violates model rows")
        monkeypatch.setattr(pipeline, "solve_allocation", faulty)
        with pytest.raises(ValueError, match="violates model rows"):
            baselines(topology, workflow, policy, HALF)

    def test_restriction_keeps_existing_pins(self, topology):
        import ehcalloc.synthgen as sg

        spec = sg.GenSpec(task_count=6, seed=4, fixed_hub_pct=34.0)
        graph = sg.generate(spec, tuple(topology.devices))
        restricted = restrict_to_device(graph, "c")
        pinned = {t.id for t in graph.tasks if t.allowed_devices == ("h",)}
        for t in restricted.tasks:
            want = ("h",) if t.id in pinned else ("c",)
            assert t.allowed_devices == want

    def test_restriction_to_a_forbidden_device_raises(self):
        from ehcalloc.model import TaskSpec, WorkflowGraph

        t = TaskSpec(id="t1", memory=1e6, storage=1e6, output_size=0.0,
                     allowed_devices=("e", "h"),
                     exec_time={"e": 1.0, "h": 0.5},
                     power={"e": 2.0, "h": 8.1},
                     vulnerability={"e": 0.05, "h": 0.05})
        with pytest.raises(ValueError, match="cannot run"):
            restrict_to_device(WorkflowGraph([t], []), "c")


#: sha256 of the fixture's plan JSON at w_rel=0.5 (``json.dumps(...,
#: indent=2)``) and of its 21-point sweep CSV: a change that keeps every
#: answer keeps these bytes
ARTIFACT_PINS = {
    "plan": "0eedc920f8d7a1382b68159d21fed291f301a43b4381164077e7129970a92437",
    "sweep": "d7e8061aea85940bc7a3ec7d703e38b2b5db3363b419f62ad2da1e3b4c677e0c",
}


class TestPinnedArtifacts:
    def test_plan_json_is_pinned(self, solved):
        plan, _ = solved
        text = json.dumps(plan.to_json_dict(), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == ARTIFACT_PINS["plan"]

    def test_sweep_csv_is_pinned(self, topology, workflow, policy):
        text = sweep(topology, workflow, policy, steps=20).to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == ARTIFACT_PINS["sweep"]


def rows_through_plans(reg, model, bounds, grid, deadline=None):
    """Sweep rows built from each solution's full plan, as the sweep built
    them before it read rows off the picks; the objective values are
    summed here from the plan's task and arc entries, in the plan's
    order: one product of reliabilities, then one log, and latency over
    tasks, then arcs."""
    rows = []
    weights = [ObjectiveWeights(w, 1.0 - w) for w in grid]
    models = [weighted_objective(reg, model, ws, bounds) for ws in weights]
    for ws, sol in zip(weights, solver.solve_all(models, solver.time_left(deadline))):
        plan = pipeline.extract_plan(reg, model, ws, bounds, sol)
        row = {"w_rel": ws.w_rel, "w_lat": ws.w_lat, "status": plan.status}
        values = dict.fromkeys(("g", "f_rel", "f_lat_s", "f_rel_norm", "f_lat_norm",
                                "reliability"))
        if plan.tasks:
            r_total, f_lat = 1.0, 0.0
            for task in plan.tasks:
                r_total *= task["reliability"]
                f_lat += task["latency_s"]
            for arc in plan.arcs:
                f_lat += arc["latency_s"]
            f_rel = math.log(r_total)
            rel, lat = bounds.normalize_rel(f_rel), bounds.normalize_lat(f_lat)
            values = {"g": ws.w_rel * rel - ws.w_lat * lat, "f_rel": f_rel, "f_lat_s": f_lat,
                      "f_rel_norm": rel, "f_lat_norm": lat, "reliability": math.exp(f_rel)}
        row.update(values)
        slots = {d: 0 for d in reg.topology.device_ids}
        for task in plan.tasks:
            for dev in [task["primary"]] + task["replicas"]:
                slots[dev] += 1
        for d in reg.topology.device_ids:
            if plan.tasks:
                row[f"pct_{d}"] = round(100.0 * slots[d] / sum(slots.values()), 10)
        for p in reg.topology.device_ids:
            for r in reg.topology.device_ids:
                if plan.tasks:
                    row[f"rep_{p}_{r}"] = sum(task["primary"] == p and task["replicas"].count(r)
                                             for task in plan.tasks)
        rows.append(row)
    return rows


class TestSweepRows:
    """A sweep row read off the picks is the row the full plan gives."""

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("instance", ["fixture", "serial-15", "mixed-40", "parallel-30"])
    def test_rows_match_the_plans(self, topology, workflow, instance, level):
        if instance == "fixture":
            graph = workflow
        else:
            structure, n = instance.split("-")
            graph = sg.generate(sg.GenSpec(task_count=int(n), structure=structure, seed=1),
                                tuple(topology.devices))
        reg, model = prepare(topology, graph, e.default_policy(level))
        bounds = normalization_bounds(reg, model, None)
        grid = [i / 10 for i in range(11)]
        rows = pipeline._sweep_points(reg, model, None, bounds, grid)
        ref = rows_through_plans(reg, model, bounds, grid)
        assert [row["status"] for row in rows] == ["optimal"] * len(grid)
        ids = reg.topology.device_ids
        assert pipeline.SweepResult(ids, rows).to_csv() == pipeline.SweepResult(ids, ref).to_csv()
        # the JSON form lists each row's keys in order
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref]

    def test_rows_without_picks(self, topology, workflow, policy):
        # past its deadline every solve ends without a pick
        reg, model = prepare(topology, workflow, policy)
        bounds = normalization_bounds(reg, model, None)
        past = time.perf_counter() - 1.0
        rows = pipeline._sweep_points(reg, model, past, bounds, [0.0, 0.5, 1.0])
        assert [row["status"] for row in rows] == ["time_limit"] * 3
        ref = rows_through_plans(reg, model, bounds, [0.0, 0.5, 1.0], past)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref]


class TestNormalizationTimeLimit:
    def test_a_limit_of_zero_stops_the_first_solve_before_its_search(self, topology,
                                                                     workflow, policy):
        reg, model = prepare(topology, workflow, policy)
        with pytest.raises(TimeLimitError, match="rel_max") as err:
            normalization_bounds(reg, model, e.SolverOptions(time_limit=0))
        assert (err.value.kind, err.value.incumbent, err.value.bound) == ("rel_max", None, None)

    def test_an_unfinished_solve_reports_its_raw_incumbent_and_bound(self, topology, policy,
                                                                      monkeypatch):
        graph = sg.generate(sg.GenSpec(task_count=30, structure="mixed", seed=1),
                            tuple(topology.devices))
        reg, model = prepare(topology, graph, policy)
        optimum = normalization_bounds(reg, model, None).lat_max

        # lat_max runs out at its first check after it holds an incumbent
        # (every 256 nodes; it needs about 500), the solves before it finish
        def expired(self):
            return self.model.metadata["objective_kind"] == "lat_max" \
                and self.best_vec is not None

        monkeypatch.setattr(solver._TaskChoiceSearch, "_expired", expired)
        with pytest.raises(TimeLimitError, match="lat_max") as err:
            normalization_bounds(reg, model, None)
        assert err.value.kind == "lat_max"
        assert err.value.incumbent <= optimum <= err.value.bound < math.inf

    def test_a_minimum_reports_its_bound_in_raw_units(self, topology, workflow, policy,
                                                      monkeypatch):
        reg, model = prepare(topology, workflow, policy)
        optimum = normalization_bounds(reg, model, None).lat_min

        # lat_min runs out once its bound is built, at the search's first node
        def expired(self):
            return self.model.metadata["objective_kind"] == "lat_min" and hasattr(self, "relax")

        monkeypatch.setattr(solver._TaskChoiceSearch, "_expired", expired)
        with pytest.raises(TimeLimitError, match="lat_min") as err:
            normalization_bounds(reg, model, None)
        # the search maximized -latency: its bound, turned back into
        # latency, lies below the least latency
        assert (err.value.kind, err.value.incumbent) == ("lat_min", None)
        assert 0.0 < err.value.bound <= optimum
