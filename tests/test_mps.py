"""MPS interchange: write, read back, solve externally, import solutions."""

import json
import math

import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from conftest import scipy_milp, small_instance
from ehcalloc.bilp import (
    NormalizationBounds,
    ObjectiveWeights,
    normalization_bounds,
    single_objective,
    weighted_objective,
)
from ehcalloc.solver import (
    SolverOptions,
    SolverStatus,
    export_mps,
    read_mps,
    read_solution,
    solve_builtin,
    verify,
)

pytest.importorskip("scipy.optimize", reason="scipy unavailable")


@pytest.fixture(scope="module")
def weighted(topology, policy):
    wf = e.inspection_workflow()
    reg, model = e.prepare(topology, wf, policy)
    bounds = normalization_bounds(reg, model, None)
    return weighted_objective(reg, model, ObjectiveWeights(0.5, 0.5), bounds)


@pytest.fixture(scope="module")
def round_trip(weighted, tmp_path_factory):
    path = export_mps(weighted, tmp_path_factory.mktemp("mps") / "fixture.mps")
    return path, read_mps(path)


class TestRoundTrip:
    def test_sidecar_written_next_to_the_file(self, round_trip):
        path, _ = round_trip
        assert path.with_suffix(".columns.json").exists()

    def test_missing_sidecar_is_an_error(self, round_trip, tmp_path):
        path, _ = round_trip
        orphan = tmp_path / "orphan.mps"
        orphan.write_text(path.read_text())
        with pytest.raises(FileNotFoundError):
            read_mps(orphan)

    def test_export_with_placement_columns_is_rejected(self, tmp_path):
        # a model exported before the placement variables were dropped:
        # one task, its candidate C0, its placement S1 and their link row
        old = tmp_path / "old.mps"
        old.write_text("\n".join([
            "NAME          EHCALLOC", "OBJSENSE", "    MAXIMIZE", "ROWS", " N  OBJ",
            " E  R0", " E  R1", "COLUMNS",
            "    C0        OBJ       1", "    C0        R0        1",
            "    C0        R1        -1", "    S1        R1        1",
            "RHS", "    RHS       R0        1",
            "BOUNDS", " BV BND       C0", " BV BND       S1", "ENDATA"]) + "\n")
        old.with_name("old.columns.json").write_text(json.dumps({
            "catalog": {
                "task_order": ["t1"],
                "candidates": [{"var": 0, "task": "t1", "primary": "e",
                                "replicas": [], "key": "t1@e"}],
                "arcs": [],
                "placements": [{"var": 1, "task": "t1", "device": "e"}],
            },
            "rows": {"R0": "choose_one[t1]", "R1": "placement_link[t1,e]"},
            "objective_offset": 0.0,
            "metadata": {"objective_kind": "rel-max", "sign": 1.0},
        }))
        with pytest.raises(ValueError, match="unknown column 'S1'"):
            read_mps(old)

    @pytest.mark.parametrize("edit", [
        (" L  R", " G  R"),
        ("BOUNDS\n", "RANGES\n    RNG       R0        1\nBOUNDS\n"),
        (" BV BND       C0\n", " FX BND       C0        1\n"),
    ], ids=["G-row", "ranges", "FX-bound"])
    def test_what_the_model_cannot_hold_is_refused(self, round_trip, tmp_path, edit):
        # each of these used to be read as >= (then verified as =) or dropped
        path, _ = round_trip
        bad = tmp_path / "bad.mps"
        bad.write_text(path.read_text().replace(*edit, 1))
        bad.with_name("bad.columns.json").write_text(
            path.with_name(path.stem + ".columns.json").read_text())
        with pytest.raises(ValueError, match=r"bad\.mps:\d+: "):
            read_mps(bad)

    def test_a_minimization_reads_back_as_the_same_maximization(self, weighted,
                                                                round_trip, tmp_path):
        path, _ = round_trip

        def negate(value):
            return value[1:] if value.startswith("-") else "-" + value

        lines = []
        for line in path.read_text().splitlines():
            tokens = line.split()
            if line == "    MAXIMIZE":
                line = "    MINIMIZE"
            elif len(tokens) == 3 and tokens[1] == "OBJ":   # a column's or the RHS entry
                line = line[:line.rindex(tokens[2])] + negate(tokens[2])
            lines.append(line)
        flipped = tmp_path / "flipped.mps"
        flipped.write_text("\n".join(lines) + "\n")
        flipped.with_name("flipped.columns.json").write_text(
            path.with_name(path.stem + ".columns.json").read_text())
        assert "MINIMIZE" in flipped.read_text() and "RHS       OBJ       " in flipped.read_text()
        clone = read_mps(flipped)
        assert clone.objective == weighted.objective
        assert clone.objective_offset == weighted.objective_offset
        assert [(r.tag, r.sense, r.rhs, r.coeffs) for r in clone.constraints] == \
            [(r.tag, r.sense, r.rhs, r.coeffs) for r in weighted.constraints]

    def test_catalog_survives(self, weighted, round_trip):
        _, clone = round_trip
        assert clone.catalog.names == weighted.catalog.names
        assert clone.catalog.task_order == weighted.catalog.task_order

    def test_matrix_identical_bit_for_bit(self, weighted, round_trip):
        _, clone = round_trip
        assert len(clone.constraints) == len(weighted.constraints)
        for mine, theirs in zip(weighted.constraints, clone.constraints):
            assert mine.tag == theirs.tag
            assert mine.sense == theirs.sense
            assert mine.rhs == theirs.rhs          # exact: %.17g survives
            assert mine.coeffs == theirs.coeffs

    def test_objective_identical_bit_for_bit(self, weighted, round_trip):
        _, clone = round_trip
        assert clone.objective == weighted.objective
        assert clone.objective_offset == weighted.objective_offset

    def test_reread_model_solves_to_the_same_plan(self, weighted, round_trip):
        _, clone = round_trip
        mine, theirs = solve_builtin(weighted), solve_builtin(clone)
        assert mine.objective == theirs.objective   # identical arithmetic path
        assert mine.assignment == theirs.assignment


class TestExternalSolve:
    def test_scipy_milp_agrees_with_builtin(self, weighted):
        status, external = scipy_milp(weighted)
        assert status == 0
        sol = solve_builtin(weighted)
        assert external == pytest.approx(sol.objective, abs=1e-8)

    def test_external_assignment_imports_cleanly(self, weighted, tmp_path):
        sol = solve_builtin(weighted)
        lines = ["* exported point"]
        lines += [f"{weighted.catalog.names[i]} {v}"
                  for i, v in enumerate(sol.assignment) if v]
        path = tmp_path / "point.sol"
        path.write_text("\n".join(lines) + "\n")
        x = read_solution(path, weighted)
        assert x == sol.assignment
        assert verify(weighted, x) == []
        assert weighted.objective_value(x) == pytest.approx(sol.objective)


def normalization_models(reg, model):
    """The four auxiliary models behind the normalization bounds, as
    ``(kind, sign, model)``; each maximizes ``sign`` times its objective."""
    return [(kind, aux.metadata["sign"], aux)
            for kind in ("rel_max", "rel_min", "lat_max", "lat_min")
            for aux in [single_objective(reg, model, kind)]]


class TestAgainstHighs:
    @pytest.mark.parametrize("seed", range(12))
    def test_normalization_solves_match_highs(self, topology, seed):
        topo, graph, policy = small_instance(topology, seed)
        reg, model = e.prepare(topo, graph, policy)
        for kind, _sign, aux in normalization_models(reg, model):
            sol = solve_builtin(aux)
            status, external = scipy_milp(aux)
            if sol.status is SolverStatus.INFEASIBLE:
                assert status == 2, kind
                continue
            assert status == 0, kind
            # HiGHS stops within its default absolute MIP gap of 1e-6
            assert external - 1e-9 <= sol.objective <= external + 1e-6, kind

    def test_lp_relaxation_is_tight_on_the_worst_latency(self, topology, policy):
        spec = sg.GenSpec(task_count=40, structure="mixed", seed=1)
        graph = sg.generate(spec, tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        _, _, lat_max = normalization_models(reg, model)[2]
        status, optimum = scipy_milp(lat_max)
        lp_status, lp_bound = scipy_milp(lat_max, relax=True)
        assert status == 0 and lp_status == 0
        assert optimum <= lp_bound <= 1.01 * optimum

    @pytest.mark.parametrize("n", [20, 30, 40])
    def test_weighted_solve_matches_highs_beyond_brute_force(self, topology, policy, n):
        # each of the four normalization solves and the weighted solve
        # must prove HiGHS's optimum well within the limit; the weighted
        # objective is scaled by HiGHS's normalization bounds
        spec = sg.GenSpec(task_count=n, structure="mixed", seed=1)
        graph = sg.generate(spec, tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        extremes = {}
        for kind, sign, aux in normalization_models(reg, model):
            status, optimum = scipy_milp(aux)
            assert status == 0, kind
            sol = solve_builtin(aux, SolverOptions(time_limit=10.0))
            assert sol.status is SolverStatus.OPTIMAL, kind
            assert sol.objective == pytest.approx(optimum, rel=1e-9, abs=1e-9), kind
            extremes[kind] = sign * optimum
        bounds = NormalizationBounds(**extremes)
        weighted = weighted_objective(reg, model, ObjectiveWeights(0.5, 0.5), bounds)
        status, external = scipy_milp(weighted)
        assert status == 0
        sol = solve_builtin(weighted, SolverOptions(time_limit=10.0))
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == pytest.approx(external, rel=1e-9)


    @pytest.mark.parametrize("structure, n, kind", [
        ("serial", 40, "rel_min"), ("serial", 40, "lat_max"),
        ("parallel", 40, "rel_min"), ("parallel", 40, "lat_max"),
        ("mixed", 60, "lat_max"),
    ])
    def test_worst_case_solves_match_highs(self, topology, policy, structure, n, kind):
        # the worst-case normalization solves, where the budgets bind and
        # the knapsack tail table does its work
        spec = sg.GenSpec(task_count=n, structure=structure, seed=1)
        graph = sg.generate(spec, tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        aux = single_objective(reg, model, kind)
        status, optimum = scipy_milp(aux)
        assert status == 0
        sol = solve_builtin(aux, SolverOptions(time_limit=30.0))
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == pytest.approx(optimum, rel=1e-9, abs=1e-9)


class TestReadSolutionErrors:
    def test_near_integer_values_snap(self, weighted, tmp_path):
        name = weighted.catalog.names[0]
        p = tmp_path / "a.sol"
        p.write_text(f"{name} 0.9999997\n")
        assert read_solution(p, weighted)[0] == 1

    @pytest.mark.parametrize("line,msg", [
        ("NOSUCH 1", "unknown variable"),
        ("C0 0.25", "not binary"),
        ("C0 1 2", "expected 'name value'"),
    ])
    def test_malformed_lines_are_rejected(self, weighted, tmp_path, line, msg):
        name = weighted.catalog.names[0]
        p = tmp_path / "bad.sol"
        p.write_text(line.replace("C0", name) + "\n")
        with pytest.raises(ValueError, match=msg):
            read_solution(p, weighted)
