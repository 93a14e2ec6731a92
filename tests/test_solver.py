"""Branch-and-bound behaviour: optimality, tie-breaks, statuses, verify."""

import itertools
import math

import pytest

import ehcalloc as e
from conftest import scipy_milp, small_instance
from ehcalloc.bilp import (
    ArcVar,
    BilpModel,
    CandidateVar,
    ObjectiveWeights,
    SetVar,
    VariableCatalog,
    normalization_bounds,
    objective_latency,
    weighted_objective,
)
from ehcalloc.model import TaskSpec, WorkflowGraph
from ehcalloc.oracle import brute_force, oracle_bounds
from ehcalloc.pipeline import assignment_from_picks, chosen_candidates
from ehcalloc.solver import (
    SolverOptions,
    SolverStatus,
    _TaskChoiceSearch,
    solve_builtin,
    verify,
)

HALF = ObjectiveWeights(0.5, 0.5)


def build_weighted(workflow, topo, policy, weights=HALF):
    reg, model = e.prepare(topo, workflow, policy)
    bounds = normalization_bounds(reg, model, None)
    return reg, weighted_objective(reg, model, weights, bounds)


def single_choice_graph():
    t = TaskSpec(id="only", memory=1e6, storage=1e6, output_size=0.0,
                 allowed_devices=("h",), exec_time={"h": 0.5},
                 power={"h": 8.1}, vulnerability={"h": 0.01})
    return WorkflowGraph([t], [])


def twin_graph(arcs):
    """Tasks t1 and t2 with identical profiles on the edge and the hub."""
    specs = [TaskSpec(id=f"t{i}", memory=1e5, storage=1e5, output_size=1e6,
                      allowed_devices=("e", "h"),
                      exec_time={"e": 1.0, "h": 1.0},
                      power={"e": 2.0, "h": 2.0},
                      vulnerability={"e": 0.01, "h": 0.01})
             for i in (1, 2)]
    return WorkflowGraph(specs, arcs)


def twin_scores(reg, weighted):
    """Objective of every feasible twin pick pair, rounded to 12 places."""
    scores = {}
    for p1 in reg.candidates_for_task("t1"):
        for p2 in reg.candidates_for_task("t2"):
            x = assignment_from_picks(reg, weighted, [p1, p2])
            if not verify(weighted, x):
                scores[(p1, p2)] = round(weighted.objective_value(x), 12)
    return scores


class TestStatuses:
    def test_forced_assignment_is_returned(self, topology, policy):
        reg, weighted = build_weighted(single_choice_graph(), topology, policy)
        sol = solve_builtin(weighted)
        assert sol.status is SolverStatus.OPTIMAL
        picks = chosen_candidates(reg, weighted, sol.assignment)
        assert [reg.candidates[i].key for i in picks] == ["only@h"]
        assert sol.nodes >= 1 and sol.wall_time >= 0.0

    def test_infeasible_when_memory_cannot_fit(self, topology, policy):
        t = TaskSpec(id="big", memory=1e12, storage=1e6, output_size=0.0,
                     allowed_devices=("e", "h"),
                     exec_time={"e": 1.0, "h": 0.5},
                     power={"e": 2.0, "h": 8.1},
                     vulnerability={"e": 0.05, "h": 0.05})
        reg, model = e.prepare(topology, WorkflowGraph([t], []), policy)
        sol = solve_builtin(model)
        assert sol.status is SolverStatus.INFEASIBLE
        assert sol.assignment is None and sol.objective is None
        with pytest.raises(e.InfeasibleError):
            normalization_bounds(reg, model, None)

    def test_time_limit_keeps_a_valid_bound(self, workflow, topology, policy):
        _, weighted = build_weighted(workflow, topology, policy)
        cut = solve_builtin(weighted, SolverOptions(time_limit=0.0))
        assert cut.status is SolverStatus.TIME_LIMIT
        full = solve_builtin(weighted)
        assert full.status is SolverStatus.OPTIMAL
        assert cut.bound >= full.objective - 1e-12


class TestOptimality:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_enumeration(self, topology, seed):
        topo, graph, policy = small_instance(topology, seed)
        reg, model = e.prepare(topo, graph, policy)
        bounds = normalization_bounds(reg, model, None)
        weighted = weighted_objective(reg, model, HALF, bounds)
        sol = solve_builtin(weighted)
        ref = brute_force(reg, HALF, bounds)
        assert sol.status.value == ref.status
        if ref.status == "optimal":
            assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
            assert list(sol.choices) == list(ref.choices)

    def test_tie_break_prefers_first_candidate_vector(self, topology, policy):
        # two unconnected tasks with identical profiles on every device give
        # several assignments with the same objective; the reported optimum
        # must be the earliest candidate-index vector
        reg, weighted = build_weighted(twin_graph([]), topology, policy)
        sol = solve_builtin(weighted)
        # symmetric twins really do tie: every combination scores the same
        scores = twin_scores(reg, weighted)
        assert len(set(scores.values())) == 1
        assert list(sol.choices) == [0, 0]
        ref = brute_force(reg, HALF,
                          normalization_bounds(reg, weighted, None))
        assert list(ref.choices) == [0, 0]

    def test_tie_break_holds_through_an_arc(self, topology, policy):
        # an arc between the twins costs latency only across devices, so
        # the bound's diffusion moves arc terms into the candidates while
        # the same-device pairs still tie exactly
        reg, weighted = build_weighted(twin_graph([("t1", "t2")]), topology, policy)
        assert any(weighted.objective.get(a.var) for a in weighted.catalog.arcs)
        scores = twin_scores(reg, weighted)
        assert sum(g == max(scores.values()) for g in scores.values()) >= 2
        sol = solve_builtin(weighted)
        ref = brute_force(reg, HALF, normalization_bounds(reg, weighted, None))
        assert list(sol.choices) == list(ref.choices) == [0, 0]

    def test_tree_leaf_replaces_a_tying_greedy_incumbent(self):
        # t1 -> t2 on devices a/b: own terms favour t1@b, so the greedy warm
        # start picks (t1@b, t2@a); the arc term a->a makes (t1@a, t2@a)
        # tie it exactly, and that earlier vector must win
        cat = VariableCatalog(
            ["t1", "t2"],
            [CandidateVar(v, t, d, (), f"{t}@{d}")
             for v, (t, d) in enumerate(itertools.product(("t1", "t2"), "ab"))],
            [ArcVar(4 + v, "t1", k, "t2", l)
             for v, (k, l) in enumerate(itertools.product("ab", "ab"))],
            [SetVar(8 + v, t, d) for v, (t, d) in enumerate(itertools.product(("t1", "t2"), "ab"))])
        model = BilpModel(cat, [], {1: 1.0, 4: 1.0})
        scores = {picks: model.objective_value(cat.vector(picks))
                  for picks in itertools.product(*cat.options)}
        assert sorted(p for p, g in scores.items() if g == 1.0) == [(0, 2), (1, 2), (1, 3)]
        sol = solve_builtin(model)
        assert sol.objective == 1.0 and list(sol.choices) == [0, 0]

    def test_verify_flags_corrupted_assignments(self, workflow, topology, policy):
        _, weighted = build_weighted(workflow, topology, policy)
        sol = solve_builtin(weighted)
        assert verify(weighted, sol.assignment) == []
        bad = list(sol.assignment)
        flip = weighted.catalog.candidates[0].var
        on = bad[flip] == 1
        bad[flip] = 0 if on else 1
        issues = verify(weighted, bad)
        assert issues and any("choose_one" in v or "link" in v for v in issues)
        frac = list(sol.assignment)
        frac[flip] = 0.5
        assert any("not binary" in v for v in verify(weighted, frac))

    def test_greedy_start_never_degrades_the_optimum(self, topology):
        # seeds with tight budgets exercise the warm start's undo paths
        for seed in (1, 3, 5):
            topo, graph, policy = small_instance(topology, seed)
            reg, model = e.prepare(topo, graph, policy)
            bounds = normalization_bounds(reg, model, None)
            for w_rel in (0.0, 1.0):
                weights = ObjectiveWeights(w_rel, 1.0 - w_rel)
                weighted = weighted_objective(reg, model, weights, bounds)
                sol = solve_builtin(weighted)
                ref = brute_force(reg, weights, bounds)
                assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
                assert list(sol.choices) == list(ref.choices)


def root_bounds(model):
    """The search's root bound after diffusion, and the plain separable
    bound of the original coefficients."""
    search = _TaskChoiceSearch(model, SolverOptions())
    search._reparametrize()
    plain = (sum(max(r["obj"] for r in records) for records in search.cand_records)
             + sum(max(search.obj.get(var, 0.0) for row in src.values() for var in row.values())
                   for src, _ in model.catalog.ends))
    return (search.rpartial + search.future + model.objective_offset,
            plain + model.objective_offset)


class TestReparametrizedBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_root_bound_is_valid_and_no_looser(self, topology, seed):
        topo, graph, policy = small_instance(topology, seed)
        reg, model = e.prepare(topo, graph, policy)
        bounds = normalization_bounds(reg, model, None)
        extremes = oracle_bounds(reg)
        weighted = weighted_objective(reg, model, HALF, bounds)
        cases = [(weighted, brute_force(reg, HALF, bounds).objective),
                 (model.with_objective(objective_latency(reg, model.catalog)),
                  extremes.lat_max)]
        for aux, optimum in cases:
            root, plain = root_bounds(aux)
            assert optimum - 1e-9 <= root <= plain

    def test_fixture_root_bound_against_highs(self, workflow, topology, policy):
        pytest.importorskip("scipy.optimize", reason="scipy unavailable")
        reg, weighted = build_weighted(workflow, topology, policy)
        status, optimum = scipy_milp(weighted)
        assert status == 0
        root, plain = root_bounds(weighted)
        assert optimum - 1e-9 <= root < plain
