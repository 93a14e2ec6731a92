"""Branch-and-bound behaviour: optimality, tie-breaks, statuses, verify."""

import itertools
import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from pathlib import Path

import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from conftest import scipy_milp, small_instance
from ehcalloc.bilp import (
    ArcVar,
    BilpModel,
    CandidateVar,
    LinearConstraint,
    ObjectiveWeights,
    VariableCatalog,
    normalization_bounds,
    objective_latency,
    objective_reliability,
    single_objective,
    weighted_objective,
)
from ehcalloc.model import Device, TaskSpec, Topology, WorkflowGraph
from ehcalloc.oracle import brute_force, oracle_bounds
from ehcalloc.pipeline import assignment_from_picks
from ehcalloc.solver import (
    SolverOptions,
    SolverStatus,
    _kelley_master,
    _TaskChoiceSearch,
    _tol,
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
        picks = weighted.catalog.picks(sol.assignment)
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

    def test_a_solve_past_its_deadline_builds_no_bound(self, workflow, topology, policy,
                                                       monkeypatch):
        _, weighted = build_weighted(workflow, topology, policy)

        def refuse(self, lam):
            raise AssertionError("a relaxation was built after the deadline")

        monkeypatch.setattr(_TaskChoiceSearch, "_relax", refuse)
        sol = solve_builtin(weighted, SolverOptions(time_limit=0.0))
        assert sol.status is SolverStatus.TIME_LIMIT
        assert sol.assignment is None and sol.nodes == 0 and sol.bound == math.inf


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

    def test_lex_smallest_optimum_wins_whatever_the_search_order(self):
        # t1 -> t2 on devices a/b: the own term favours t2@b, so the search
        # reaches (t1@a, t2@b) first; the arc term a->a makes (t1@a, t2@a)
        # tie it exactly, and that lexicographically smaller vector must win
        cat = VariableCatalog(
            ["t1", "t2"],
            [CandidateVar(v, t, d, (), f"{t}@{d}")
             for v, (t, d) in enumerate(itertools.product(("t1", "t2"), "ab"))],
            [ArcVar(4 + v, "t1", k, "t2", l)
             for v, (k, l) in enumerate(itertools.product("ab", "ab"))])
        model = BilpModel(cat, [], {3: 1.0, 4: 1.0})
        scores = {picks: model.objective_value(cat.vector(picks))
                  for picks in itertools.product(*cat.options)}
        assert sorted(p for p, g in scores.items() if g == 1.0) == [(0, 2), (0, 3), (1, 3)]
        _, leaves, sol = leaves_and_solution(_TaskChoiceSearch, model)
        assert leaves[0] == (0, 1)
        assert sol.objective == 1.0 and list(sol.choices) == [0, 0]
        assert list(solve_builtin(model).choices) == [0, 0]

    def test_missing_device_pairs_are_never_picked(self):
        # t1 (on a, b, c) -> t2 (on a, b) lacks the pair b->b and every pair
        # leaving c, as a model read back from an edited sidecar may; t1@c
        # scores best, so the search tries it while t2 is still open
        cands = [("t1", "a"), ("t1", "b"), ("t1", "c"), ("t2", "a"), ("t2", "b")]
        cat = VariableCatalog(
            ["t1", "t2"],
            [CandidateVar(v, t, d, (), f"{t}@{d}") for v, (t, d) in enumerate(cands)],
            [ArcVar(5 + v, "t1", k, "t2", l) for v, (k, l) in enumerate(["aa", "ab", "ba"])])
        rows = [LinearConstraint({v: 1.0 for v in options}, "=", 1.0, f"choose_one[{t}]")
                for t, options in zip(cat.task_order, cat.options)]
        for side, (task, devices) in enumerate([("t1", "abc"), ("t2", "ab")]):
            for dev in devices:
                coeffs = {var: 1.0 for var in cat.ends[0][side].get(dev, {}).values()}
                coeffs[cands.index((task, dev))] = -1.0
                rows.append(LinearConstraint(coeffs, "=", 0.0, f"marginal[{task}@{dev}]"))
        # a budget that rules out a->a
        rows.append(LinearConstraint({0: 1.0, 3: 1.0}, "<=", 1.0, "budget"))
        model = BilpModel(cat, rows, {2: 5.0, 4: 1.0, 5: 0.5, 7: 1.0})
        scores = {}
        for picks in itertools.product(*cat.options):
            try:
                x = cat.vector(picks)
            except KeyError:            # an arc pair the model lacks
                continue
            if not verify(model, x):
                scores[picks] = model.objective_value(x)
        best = max(scores.values())
        assert sorted(p for p, g in scores.items() if g == best) == [(0, 4), (1, 3)]
        sol = solve_builtin(model)
        assert sol.status is SolverStatus.OPTIMAL and sol.objective == best
        picks = [options[k] for options, k in zip(cat.options, sol.choices)]
        assert picks == [0, 4]

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

    def test_a_nan_budget_coefficient_is_a_violation(self, workflow, topology, policy):
        # the search drops a row that is not monotone, and a NaN lhs used
        # to pass verify, so the solve returned OPTIMAL without a word
        _, weighted = build_weighted(workflow, topology, policy)
        rows = [LinearConstraint({**row.coeffs, next(iter(row.coeffs)): math.nan},
                                 row.sense, row.rhs, row.tag)
                if row.tag == "memory[e]" else row for row in weighted.constraints]
        assert rows != weighted.constraints
        model = BilpModel(weighted.catalog, rows, weighted.objective,
                          weighted.objective_offset)
        with pytest.raises(ValueError, match=r"solution violates model rows: memory\[e\]: nan"):
            solve_builtin(model)

    def test_tight_budgets_keep_the_brute_force_optimum(self, topology, monkeypatch):
        # seeds with tight budgets exercise the multipliers, the knapsack
        # tail table and children that budget rows refuse
        tables = []
        build = _TaskChoiceSearch._tail_table

        def counted(self, relax):
            tables.append(self.tail_row)
            return build(self, relax)

        monkeypatch.setattr(_TaskChoiceSearch, "_tail_table", counted)
        for seed in (1, 3, 5):
            topo, graph, policy = small_instance(topology, seed)
            reg, model = e.prepare(topo, graph, policy)
            bounds = normalization_bounds(reg, model, None)
            extremes = oracle_bounds(reg)
            assert bounds.rel_min == pytest.approx(extremes.rel_min, abs=1e-9)
            assert bounds.lat_max == pytest.approx(extremes.lat_max, abs=1e-9)
            for w_rel in (0.0, 1.0):
                weights = ObjectiveWeights(w_rel, 1.0 - w_rel)
                weighted = weighted_objective(reg, model, weights, bounds)
                sol = solve_builtin(weighted)
                ref = brute_force(reg, weights, bounds)
                assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
                assert list(sol.choices) == list(ref.choices)
        # not vacuous: the worst-latency solves of seeds 1 and 3 and their
        # w_rel = 1 solves each build a table
        assert len(tables) >= 4


def knapsack_model(items, rhs, arcs=(), arc_size=0.0):
    """Tasks t0, t1, ... with candidates ``(device, value, size)`` and one
    budget row ``memory`` of the sizes, limited to ``rhs``.  Each workflow
    arc in ``arcs`` gets every device pair, and its pair b->b costs
    ``arc_size`` on the budget row."""
    tasks = [f"t{i}" for i in range(len(items))]
    cands, objective, row = [], {}, {}
    for t, options in zip(tasks, items):
        for dev, value, size in options:
            v = len(cands)
            cands.append(CandidateVar(v, t, dev, (), f"{t}@{dev}"))
            objective[v], row[v] = value, size
    arc_vars = []
    for i, j in arcs:
        devices = [sorted({dev for dev, _, _ in items[x]}) for x in (i, j)]
        for k, l in itertools.product(*devices):
            v = len(cands) + len(arc_vars)
            arc_vars.append(ArcVar(v, tasks[i], k, tasks[j], l))
            if k == l == "b":
                row[v] = arc_size
    cat = VariableCatalog(tasks, cands, arc_vars)
    return BilpModel(cat, [LinearConstraint(row, "<=", rhs, "memory")], objective)


def enumerated_optima(model):
    """The best objective over every pick vector that fits, and the
    vectors that reach it."""
    cat = model.catalog
    scores = {picks: model.objective_value(cat.vector(picks))
              for picks in itertools.product(*cat.options)
              if not verify(model, cat.vector(picks))}
    best = max(scores.values())
    return best, sorted(picks for picks, g in scores.items() if g == best)


class Untabled(_TaskChoiceSearch):
    """The search with the static bound alone."""

    def _install(self, relax):
        super()._install(relax)
        self.tail = None


def leaves_and_solution(search_class, model):
    """A search of ``model`` by ``search_class``, the leaves it reached in
    order, and its solution."""
    leaves = []

    class Tracing(search_class):
        def _accept_leaf(self):
            leaves.append(tuple(self.chosen))
            super()._accept_leaf()

    search = Tracing(model, SolverOptions())
    return search, leaves, search.run()


def root_bounds(model):
    """The search's root bound (budget rows dualized, then diffusion),
    the bound of diffusion alone (zero multipliers), and the plain
    separable bound of the original coefficients."""
    search = _TaskChoiceSearch(model, SolverOptions())
    zero = search._relax([0.0] * len(search.lay.dual_rows)).bound
    root = search._multipliers().bound
    plain = (sum(max(terms) for terms in search.cobj)
             + sum(max(model.objective.get(var, 0.0) for row in src.values() for var in row.values())
                   for src, _ in model.catalog.ends))
    return tuple(b + model.objective_offset for b in (root, zero, plain))


def starved_fixture(topology, workflow, policy):
    """The fixture with a one-byte edge memory: the pinned t1 cannot fit."""
    starved = Topology(
        [d if d.id != "e" else Device(**{**d.__dict__, "memory_budget": 1.0})
         for d in topology.devices],
        list(topology.channels.values()), dict(topology.relays))
    return e.prepare(starved, workflow, policy)


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
            root, zero, plain = root_bounds(aux)
            assert optimum - 1e-9 <= root <= zero <= plain

    def test_fixture_root_bound_against_highs(self, workflow, topology, policy):
        pytest.importorskip("scipy.optimize", reason="scipy unavailable")
        reg, weighted = build_weighted(workflow, topology, policy)
        status, optimum = scipy_milp(weighted)
        assert status == 0
        root, _, plain = root_bounds(weighted)
        assert optimum - 1e-9 <= root < plain

    @pytest.mark.parametrize("n", [20, 40])
    def test_dualized_bound_closes_on_the_budgeted_optimum(self, topology, policy, n):
        # the budget rows bind on the worst latency: diffusion alone stays
        # near the LP without them, the multipliers bring it to the optimum
        pytest.importorskip("scipy.optimize", reason="scipy unavailable")
        graph = sg.generate(sg.GenSpec(task_count=n, structure="mixed", seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        lat_max = model.with_objective(objective_latency(reg, model.catalog))
        status, optimum = scipy_milp(lat_max)
        assert status == 0
        root, zero, _ = root_bounds(lat_max)
        assert optimum - 1e-9 <= root <= zero
        if n == 40:
            assert zero > 1.3 * optimum
            assert root <= 1.01 * optimum

    @pytest.mark.parametrize("excess", [0.0, 0.9e-9], ids=["exact", "within-tolerance"])
    def test_budget_met_at_its_limit_keeps_its_optimum(self, topology, excess):
        # every budget the brute-force optimum touches is cut to its usage,
        # or to just below it within the row tolerance: the optimum stays
        # feasible only up to row_cap, so the dualized constant must be
        # taken at row_cap, not at rhs, for the bound to cover it
        topo, graph, policy = small_instance(topology, 1)
        reg, model = e.prepare(topo, graph, policy)
        lat_max = model.with_objective(objective_latency(reg, model.catalog))
        cat = lat_max.catalog
        best = max((picks for picks in itertools.product(*cat.options)
                    if not verify(lat_max, cat.vector(picks))),
                   key=lambda picks: lat_max.objective_value(cat.vector(picks)))
        x = cat.vector(best)
        optimum = lat_max.objective_value(x)
        budget_rows = {id(row) for row in lat_max.constraints if row.sense == "<="}
        rows = [LinearConstraint(row.coeffs, row.sense, row.lhs(x) / (1.0 + excess), row.tag)
                if id(row) in budget_rows and row.lhs(x) > 0 else row
                for row in lat_max.constraints]
        tight = BilpModel(cat, rows, lat_max.objective, lat_max.objective_offset)
        root, zero, _ = root_bounds(tight)
        assert optimum - 1e-12 * max(1.0, abs(optimum)) <= root < zero
        sol = solve_builtin(tight)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == pytest.approx(optimum, abs=1e-9)
        assert [opts[k] for opts, k in zip(cat.options, sol.choices)] == list(best)


class TestKnapsackTail:
    def test_table_prunes_what_the_static_bound_keeps(self):
        # three tasks, one 0.6-sized pick each worth 6, 5 and 4 against a
        # budget of 1: only one fits, but the dualized bound prices
        # 1 / 0.6 of them, so with t0 light it still promises more than 6
        model = knapsack_model([[("a", 0.0, 0.0), ("b", value, 0.6)] for value in (6.0, 5.0, 4.0)],
                               1.0)
        best, optima = enumerated_optima(model)
        assert (best, optima) == (6.0, [(1, 2, 4)])
        search, leaves, sol = leaves_and_solution(_TaskChoiceSearch, model)
        static, static_leaves, static_sol = leaves_and_solution(Untabled, model)
        assert search.relax.lam[0] > 0.0 and search.tail is not None
        # one level per open task plus one, each a list of steps whose
        # weights rise, whose values strictly rise after their leading
        # -inf, and which fit the row
        assert len(search.tail) == search.n_tasks + 1 == 4
        for weights, values in search.tail:
            assert len(values) == len(weights) + 1
            assert list(weights) == sorted(weights)
            assert all(a < b for a, b in zip(values, values[1:]))
            assert all(w <= search.tail_cap + _tol(search.tail_cap) for w in weights)
        for s in (sol, static_sol):
            assert s.status is SolverStatus.OPTIMAL
            assert s.objective == best and list(s.choices) == [1, 0, 0]
        # the static bound keeps the subtree with t0 light and finds its
        # three leaves; the table prunes it at its root
        assert leaves == [(1, 0, 0)]
        assert (0, 0, 0) in static_leaves and len(static_leaves) == 4
        assert sol.nodes < static_sol.nodes
        assert sol.bound >= best

    def test_lex_smallest_tie_wins_with_a_table(self):
        # t0@b + t1@a and t0@a + t1@b both score 5.5 exactly and only one
        # b fits; the search takes t0@b first, so it reaches (1, 0) before
        # the lexicographically smaller (0, 1), which the table must not
        # prune, since its bound there ties the incumbent
        model = knapsack_model([[("a", -1.0, 0.0), ("b", 6.0, 0.6)],
                                [("a", -0.5, 0.0), ("b", 6.5, 0.7)]], 1.0)
        best, optima = enumerated_optima(model)
        assert (best, optima) == (5.5, [(0, 3), (1, 2)])
        search, leaves, sol = leaves_and_solution(_TaskChoiceSearch, model)
        assert search.tail is not None
        assert leaves[0] == (1, 0)
        assert sol.objective == 5.5 and list(sol.choices) == [0, 1]

    def test_a_row_that_charges_arcs_gets_no_table(self):
        # the same knapsack over t0 -> t1, where the pair b->b also costs
        # memory: the row is dualized, but a table over the candidates
        # alone would drop the arc's charge and could cut the optimum
        model = knapsack_model([[("a", 0.0, 0.0), ("b", 6.0, 0.6)],
                                [("a", 0.0, 0.0), ("b", 5.0, 0.6)]],
                               1.0, arcs=[(0, 1)], arc_size=0.1)
        best, optima = enumerated_optima(model)
        search, _, sol = leaves_and_solution(_TaskChoiceSearch, model)
        assert search.relax.lam[0] > 0.0
        assert search.tail is None
        assert sol.objective == best and [opts[k] for opts, k in
                                          zip(model.catalog.options, sol.choices)] == list(optima[0])

    def test_fixture_solves_build_no_table(self, topology, workflow, policy, monkeypatch):
        # every budget fits at zero multipliers on the bundled fixture, so
        # no solve of a solve or a sweep builds a table; the first dive
        # reaches an optimum and every later child's bound misses it, so
        # each solve applies one candidate per task
        seen = []
        run = _TaskChoiceSearch.run

        def recorded(self):
            sol = run(self)
            seen.append((self.tail, sol.nodes))
            return sol

        monkeypatch.setattr(_TaskChoiceSearch, "run", recorded)
        e.solve_allocation(topology, workflow, policy, HALF)
        e.sweep(topology, workflow, policy, steps=20)
        assert len(seen) == 5 + 4 + 21
        assert seen == [(None, 15)] * len(seen)

    @pytest.mark.parametrize("n, most", [(30, 600), (40, 1_100), (60, 3_500)])
    def test_worst_latency_node_counts(self, topology, policy, n, most):
        # with exact weights in the table, and each child loop stopped at
        # its first child below the incumbent, the search needs 507, 931
        # and 2,847 nodes
        sol = solve_builtin(worst_latency(topology, policy, n))
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.nodes <= most

    def test_root_bound_lies_between_the_optimum_and_the_static_bound(self, topology, policy):
        # the tabled root bound is the static bound with the tail row's
        # dualized term made exact at the full capacity; on mixed n=40 it
        # reads 937.93 against a static 938.59 and an optimum of 937.12,
        # and a table that rounded weights could read above the static one
        search = _TaskChoiceSearch(worst_latency(topology, policy, 40), SolverOptions())
        sol = search.run()
        assert sol.status is SolverStatus.OPTIMAL and search.tail is not None
        static = search.relax.bound + search.model.objective_offset
        weights, values = search.tail[0]
        entry = values[bisect_right(weights, search.tail_cap + _tol(search.tail_cap))]
        tabled = static + entry - search.tail_weight * search.tail_cap
        assert sol.objective <= tabled < static


def worst_latency(topology, policy, n):
    """The worst-latency model of the seed-1 mixed workflow with ``n`` tasks."""
    graph = sg.generate(sg.GenSpec(task_count=n, structure="mixed", seed=1),
                        tuple(topology.devices))
    reg, model = e.prepare(topology, graph, policy)
    return model.with_objective(objective_latency(reg, model.catalog))


class TestKelleyMaster:
    def test_master_matches_highs(self):
        # random cut sets, slopes with exact zeros and ones as the search
        # produces them; the master's optimum and its argument must agree
        optimize = pytest.importorskip("scipy.optimize", reason="scipy unavailable")
        rng = random.Random(0)
        for _ in range(60):
            n_rows, n_cuts = rng.randint(1, 8), rng.randint(1, 30)
            cuts = [(rng.uniform(-100.0, 1000.0),
                     [rng.choice([rng.uniform(-5.0, 1.0), 0.0, 1.0]) for _ in range(n_rows)])
                    for _ in range(n_cuts)]
            upper = [rng.uniform(1.0, 2000.0)] * n_rows
            theta, lam = _kelley_master(cuts, upper)
            res = optimize.linprog(
                [1.0] + [0.0] * n_rows,
                A_ub=[[-1.0] + slope for _, slope in cuts], b_ub=[-a for a, _ in cuts],
                bounds=[(None, None)] + [(0.0, u) for u in upper], method="highs")
            assert res.status == 0
            assert all(0.0 <= v <= u for v, u in zip(lam, upper))
            at_lam = max(a + sum(g * v for g, v in zip(slope, lam)) for a, slope in cuts)
            assert theta == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
            assert at_lam == pytest.approx(res.fun, rel=1e-9, abs=1e-9)


class TestSearchOrder:
    def test_pinned_task_that_cannot_fit_fails_at_the_root(self, topology, workflow,
                                                           policy):
        reg, model = starved_fixture(topology, workflow, policy)
        for coeffs in (objective_latency(reg, model.catalog),
                       objective_reliability(reg, model.catalog)):
            # the limit only turns a search that missed the pin into a failure
            sol = solve_builtin(model.with_objective(coeffs), SolverOptions(time_limit=5.0))
            assert sol.status is SolverStatus.INFEASIBLE
            assert sol.nodes <= len(workflow.tasks)

    def test_search_repeats_exactly(self, topology, policy):
        graph = sg.generate(sg.GenSpec(task_count=20, structure="mixed", seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        lat_max = model.with_objective(objective_latency(reg, model.catalog))
        first, again = solve_builtin(lat_max), solve_builtin(lat_max)
        assert (first.objective, first.choices, first.nodes, first.bound) == \
            (again.objective, again.choices, again.nodes, again.bound)

    def test_solving_imports_no_scipy(self):
        # scipy only checks the solver in tests; importing it at run time
        # would raise the planner's resident memory by tens of MiB
        src = str(Path(e.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, ehcalloc as e; "
                "e.solve_allocation(e.reference_topology(), e.inspection_workflow(), "
                "e.default_policy(), e.ObjectiveWeights(0.5, 0.5)); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestSearchLeavesNoTrace:
    """Each node saves its state once and restores it after every child,
    so a finished search is back in the root's state, float for float."""

    class Refusing(_TaskChoiceSearch):
        """The search, counting the children a budget row refuses."""

        refused = 0

        def _apply(self, t, child):
            fits = super()._apply(t, child)
            if not fits and any(u > c for u, c in zip(self.usage, self.lay.row_cap)):
                self.refused += 1
            return fits

    def finished(self, model):
        search = self.Refusing(model, SolverOptions())
        assert search.run().status is SolverStatus.OPTIMAL
        assert search.usage == [0.0] * len(search.usage)
        assert search.chosen == [-1] * search.n_tasks
        assert search.rpartial == 0.0 and search.future == search.relax.bound
        return search

    def test_on_the_fixture(self, topology, workflow, policy):
        self.finished(build_weighted(workflow, topology, policy)[1])

    def test_when_budget_rows_refuse_children(self, topology):
        # the worst-latency solve of seed 1 has tight budgets and a tail table
        topo, graph, policy = small_instance(topology, 1)
        reg, model = e.prepare(topo, graph, policy)
        search = self.finished(model.with_objective(objective_latency(reg, model.catalog)))
        assert search.tail is not None and search.refused > 0


class ApplyEveryChild(_TaskChoiceSearch):
    """The search with the child loop that applies every child, as the
    loop was before it stopped at its first child below the incumbent."""

    def _dfs(self, level, parent_bound=math.inf):
        if level == self.n_tasks:
            self._accept_leaf()
            return
        t = self.order[level]
        weights, values = self.tail[level + 1] if self.tail is not None else (None, None)
        ceiling = parent_bound + _tol(parent_bound)
        rpartial, future, usage = self.rpartial, self.future, self.usage[:]
        for child in self.children[t]:
            if self._apply(t, child):
                bound = self.rpartial + self.future + self.model.objective_offset
                if values is not None:
                    slack = self.tail_cap - self.usage[self.tail_row]
                    bound = min(bound, bound - self.tail_weight * slack
                                + values[bisect_right(weights, slack + self.tail_tol)])
                if bound > ceiling:
                    raise RuntimeError("relaxation bound increased down the tree")
                if bound < self.prune_below:
                    self.max_pruned = max(self.max_pruned, bound)
                else:
                    self._dfs(level + 1, bound)
            self.rpartial, self.future = rpartial, future
            self.usage[:] = usage
        self.chosen[t] = -1


def incumbents_and_solution(search_class, model):
    """The incumbents a search of ``model`` by ``search_class`` takes, in
    order, and its solution."""
    taken = []

    class Recording(search_class):
        def _accept_leaf(self):
            super()._accept_leaf()
            if not taken or taken[-1] != (self.best_g, self.best_vec):
                taken.append((self.best_g, self.best_vec))

    return taken, Recording(model, SolverOptions()).run()


class TestChildLoopStopsEarly:
    """The loop skips only children the incumbent would prune: it takes
    the same incumbents as the loop that applies every child, proves the
    same bound and never visits more nodes."""

    def assert_same_search(self, model):
        ref_taken, ref = incumbents_and_solution(ApplyEveryChild, model)
        taken, sol = incumbents_and_solution(_TaskChoiceSearch, model)
        assert ref.status is SolverStatus.OPTIMAL
        assert (sol.status, sol.objective, sol.choices, sol.assignment, sol.bound) == \
            (ref.status, ref.objective, ref.choices, ref.assignment, ref.bound)
        assert taken == ref_taken
        assert sol.nodes <= ref.nodes

    def test_fixture_solves(self, topology, workflow, policy):
        reg, model = e.prepare(topology, workflow, policy)
        bounds = normalization_bounds(reg, model, None)
        for kind in ("rel_max", "rel_min", "lat_max", "lat_min"):
            self.assert_same_search(single_objective(reg, model, kind))
        self.assert_same_search(weighted_objective(reg, model, HALF, bounds))

    @pytest.mark.parametrize("structure", ["serial", "mixed", "parallel"])
    def test_normalization_solves_at_15_tasks(self, topology, policy, structure):
        graph = sg.generate(sg.GenSpec(task_count=15, structure=structure, seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        for kind in ("rel_max", "rel_min", "lat_max", "lat_min"):
            self.assert_same_search(single_objective(reg, model, kind))

    def test_worst_latency_with_a_table(self, topology, policy):
        self.assert_same_search(worst_latency(topology, policy, 40))

    def test_lex_smallest_tie(self):
        # the model of test_lex_smallest_tie_wins_with_a_table
        self.assert_same_search(knapsack_model([[("a", -1.0, 0.0), ("b", 6.0, 0.6)],
                                                [("a", -0.5, 0.0), ("b", 6.5, 0.7)]], 1.0))
