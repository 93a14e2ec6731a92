"""MPS interchange: write, read back, solve externally, import solutions."""

import hashlib
import json
import math
import re

import numpy as np
import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from conftest import scipy_milp, small_instance, tightened_topology
from ehcalloc.bilp import (
    BilpModel,
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


def same_model(clone, model):
    """Catalog, rows and objective equal, value for value; the file leaves
    out zero objective coefficients."""
    assert clone.catalog.names == model.catalog.names
    assert clone.objective == {v: c for v, c in model.objective.items() if c}
    assert clone.objective_offset == model.objective_offset
    assert len(clone.constraints) == len(model.constraints)
    for mine, theirs in zip(model.constraints, clone.constraints):
        assert (theirs.tag, theirs.sense, theirs.rhs) == (mine.tag, mine.sense, mine.rhs)
        assert theirs.coeffs == mine.coeffs          # exact: %.17g survives


def edited_copy(path, tmp_path, name, text):
    """``text`` written as ``<name>.mps`` next to a copy of ``path``'s sidecar."""
    out = tmp_path / f"{name}.mps"
    out.write_text(text)
    out.with_name(f"{name}.columns.json").write_text(
        path.with_name(path.stem + ".columns.json").read_text())
    return out


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

    def test_a_second_entry_on_a_row_is_refused_at_its_line(self, tmp_path):
        # the second of two entries for one column and row used to replace
        # the first without a word: C0 read back with coefficient 5.0
        dup = tmp_path / "dup.mps"
        dup.write_text("\n".join([
            "NAME          EHCALLOC", "OBJSENSE", "    MAXIMIZE", "ROWS", " N  OBJ",
            " E  R0", "COLUMNS",
            "    C0        R0        1", "    C0        R0        5",
            "RHS", "    RHS       R0        1",
            "BOUNDS", " BV BND       C0", "ENDATA"]) + "\n")
        dup.with_name("dup.columns.json").write_text(json.dumps({
            "catalog": {
                "task_order": ["t1"],
                "candidates": [{"var": 0, "task": "t1", "primary": "e",
                                "replicas": [], "key": "t1@e"}],
                "arcs": [],
            },
            "rows": {"R0": "choose_one[t1]"},
            "objective_offset": 0.0,
            "metadata": {},
        }))
        with pytest.raises(ValueError, match=re.escape(
                f"{dup}:9: column C0 has a second entry on row 'R0'")):
            read_mps(dup)
        dup.write_text(dup.read_text().replace("    C0        R0        5\n", ""))
        assert read_mps(dup).constraints[0].coeffs == {0: 1.0}

    @pytest.mark.parametrize("before, after, expected", [
        (" L  R", " G  R", "row type 'G'"),
        ("BOUNDS\n", "RANGES\n    RNG       R0        1\nBOUNDS\n", "RANGES are not supported"),
        (" BV BND       C0\n", " FX BND       C0        1\n", "bound type 'FX'"),
        ("COLUMNS\n", "COLUMNS\n    C0        R99999    1\n", "undeclared row 'R99999'"),
        ("RHS\n", "RHS\n    RHS       R99999    1\n", "undeclared row 'R99999'"),
        (" N  OBJ\n", " N  OBJ\n L  R99999  extra\n", "expected 'type name'"),
        (" N  OBJ\n", " N  OBJ\n N  FREE\n", "row type 'N' of FREE"),
        (" N  OBJ\n", " N  OBJ\n L  R0\n", "row 'R0' declared twice"),
        ("COLUMNS\n", "COLUMNS\n    X1        R0        1\n", "unknown column 'X1'"),
        ("COLUMNS\n", "COLUMNS\n    C0        R0        1         R1\n", "4 fields"),
        ("RHS\n", "RHS\n    R0        1\n", "2 fields"),
        ("    MAXIMIZE\n", "    UP\n", "objective sense 'UP'"),
        ("COLUMNS\n", "COLUMNS\n    C0        R0        7\n",
         "column C0 has a second entry on row 'R0'"),
        ("COLUMNS\n", "COLUMNS\n    C0        OBJ       7\n",
         "column C0 has a second entry on row 'OBJ'"),
        ("COLUMNS\n", "COLUMNS\n* a comment\n\n    C0        R1        7   R1   8\n",
         "column C0 has a second entry on row 'R1'"),
        ("COLUMNS\n", "COLUMNS\n    C0        R0        abc\n",
         "value 'abc' is not a finite number"),
        ("COLUMNS\n", "COLUMNS\n    C0        R0        nan\n",
         "value 'nan' is not a finite number"),
        ("COLUMNS\n", "COLUMNS\n    C0        OBJ       1   R0   inf\n",
         "value 'inf' is not a finite number"),
        ("RHS\n", "RHS\n    RHS       R0        -inf\n",
         "value '-inf' is not a finite number"),
        ("RHS\n", "RHS\n    RHS       OBJ       abc\n",
         "value 'abc' is not a finite number"),
        ("    RHS       R0        1\n", "    RHS       R0        1\n    RHS       R0        999\n",
         "row 'R0' has a second right-hand side"),
    ], ids=["G-row", "ranges", "FX-bound", "column-on-undeclared-row",
            "rhs-on-undeclared-row", "rows-extra-token", "second-N-row",
            "row-declared-twice", "unknown-column", "unpaired-column", "unpaired-rhs",
            "unknown-sense", "second-entry-on-a-row", "second-objective-entry",
            "second-entry-on-one-line", "column-value-abc", "column-value-nan",
            "column-value-inf", "rhs-value-minus-inf", "objective-rhs-abc",
            "second-rhs-of-a-row"])
    def test_what_the_model_cannot_hold_is_refused(self, round_trip, tmp_path,
                                                   before, after, expected):
        # each of these used to be read as >= (then verified as =), dropped,
        # or end in a KeyError, an unpacking error or a message without
        # its line
        path, _ = round_trip
        bad = edited_copy(path, tmp_path, "bad", path.read_text().replace(before, after, 1))
        with pytest.raises(ValueError, match=r"bad\.mps:\d+: .*" + re.escape(expected)):
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

    @pytest.mark.parametrize("sense, sign", [
        ("OBJSENSE\n    MAX\n", 1), ("OBJSENSE MAXIMIZE\n", 1),
        ("OBJSENSE\n    min\n", -1), ("OBJSENSE    MIN\n", -1),
    ], ids=["MAX", "MAXIMIZE-on-one-line", "min", "MIN-on-one-line"])
    def test_objective_sense_spellings(self, weighted, round_trip, tmp_path, sense, sign):
        # "MAX" used to read as a minimization, and a sense on the
        # OBJSENSE line itself was dropped
        path, _ = round_trip
        text = path.read_text().replace("OBJSENSE\n    MAXIMIZE\n", sense, 1)
        clone = read_mps(edited_copy(path, tmp_path, "sense", text))
        assert clone.objective == {v: sign * c for v, c in weighted.objective.items() if c}
        assert clone.objective_offset == sign * weighted.objective_offset

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

    def test_the_objective_row_is_the_declared_n_row(self, weighted, round_trip, tmp_path):
        path, _ = round_trip
        # the N row, the objective's COLUMNS entries and its RHS entry
        text = "".join(line.replace(" OBJ ", " COST ") if "OBJ" in line.split()[1:] else line
                       for line in path.read_text().replace(" N  OBJ\n", " N  COST\n")
                       .splitlines(keepends=True))
        assert " N  COST\n" in text and " OBJ" not in text
        same_model(read_mps(edited_copy(path, tmp_path, "cost", text)), weighted)

    def test_general_layout_reads_back_the_same_model(self, weighted, round_trip, tmp_path):
        # comments, blank lines, tab indents and two row/value pairs per
        # COLUMNS and RHS line, as other writers emit them
        path, _ = round_trip
        lines = path.read_text().splitlines()
        columns, rhs, bounds = (lines.index(s) for s in ("COLUMNS", "RHS", "BOUNDS"))

        def paired(entries):
            out, k = [], 0
            while k < len(entries):
                fields = entries[k].split()
                if k + 1 < len(entries) and entries[k + 1].split()[0] == fields[0]:
                    k += 1
                    fields += entries[k].split()[1:]
                out.append("\t".join(["", *fields]) if len(out) % 3 == 2
                           else "    " + "  ".join(fields))
                k += 1
            return out

        text = "\n".join(
            ["* written by another tool", ""] + lines[:columns + 1]
            + ["  * the matrix, column by column", "   "]
            + paired(lines[columns + 1:rhs]) + [lines[rhs]]
            + paired(lines[rhs + 1:bounds]) + ["", "*"] + lines[bounds:]) + "\n"
        body = text.splitlines()
        widths = {len(line.split()) for line in body[body.index("COLUMNS"):body.index("BOUNDS")]}
        assert {3, 5} <= widths and "\n\t" in text
        same_model(read_mps(edited_copy(path, tmp_path, "general", text)), weighted)


#: sha256 and size of the MPS file of ``single_objective(reg, model,
#: "lat_max")`` at policy level 3 on the reference topology; the writer
#: must keep these bytes whatever PYTHONHASHSEED is
MPS_PINS = {
    "fixture": ("af182f1645654e324ca5fe3d87b8018c985eb0dd1b10524df53fe4c70ec6be12", 66_112),
    "mixed-100": ("2b60b321379f434f0b635094595f952c0236efb71e0a53e1cd9a8529b2ac12c7", 610_228),
}


@pytest.fixture(scope="module", params=sorted(MPS_PINS))
def pinned(request, topology, tmp_path_factory):
    if request.param == "fixture":
        graph = e.inspection_workflow()
    else:
        graph = sg.generate(sg.GenSpec(task_count=100, structure="mixed", seed=1),
                            tuple(topology.devices))
    reg, model = e.prepare(topology, graph, e.default_policy(3))
    aux = single_objective(reg, model, "lat_max")
    path = export_mps(aux, tmp_path_factory.mktemp("pinned") / f"{request.param}.mps")
    return request.param, aux, path


class TestPinnedArtifacts:
    def test_mps_bytes_are_pinned(self, pinned):
        name, _, path = pinned
        data = path.read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == MPS_PINS[name]

    def test_sidecar_is_one_line_of_the_model_facts(self, pinned):
        _, aux, path = pinned
        text = path.with_name(path.stem + ".columns.json").read_text()
        sidecar = json.loads(text)
        assert sidecar == {
            "catalog": aux.catalog.to_json_dict(),
            "rows": {f"R{i}": row.tag for i, row in enumerate(aux.constraints)},
            "objective_offset": aux.objective_offset,
            "metadata": {"objective_kind": "lat_max", "sign": 1.0},
        }
        assert text == json.dumps(sidecar, sort_keys=True) + "\n"

    def test_read_back_is_bit_exact(self, pinned):
        _, aux, path = pinned
        clone = read_mps(path)
        same_model(clone, aux)
        assert clone.catalog.task_order == aux.catalog.task_order
        assert clone.metadata == {**aux.metadata, "source": str(path)}


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
        ("mixed", 60, "lat_max"), ("parallel", 100, "lat_max"), ("serial", 60, "lat_max"),
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

    @pytest.mark.parametrize("structure, n, seed, binding", [
        ("serial", 30, 1, "energy[e]"), ("mixed", 30, 2, "storage[h]"),
        ("parallel", 40, 3, "energy[e]"), ("mixed", 40, 4, "energy[h]"),
    ])
    def test_tightened_budgets_match_highs(self, topology, structure, n, seed, binding):
        # on the reference topology only memory[e] and storage[e] ever bind
        # at level 3; shrunk edge and hub budgets make energy and hub rows
        # bind, so a bound that mishandles them shows here
        topo = tightened_topology(topology, np.random.default_rng(20_000 + seed))
        graph = sg.generate(sg.GenSpec(task_count=n, structure=structure, seed=seed),
                            tuple(topology.devices))
        reg, model = e.prepare(topo, graph, e.default_policy(3))
        optima = {}
        for kind in ("lat_max", "rel_min", "rel_max"):
            aux = single_objective(reg, model, kind)
            status, optima[kind] = scipy_milp(aux)
            assert status == 0, kind
            sol = solve_builtin(aux, SolverOptions(time_limit=10.0))
            assert sol.status is SolverStatus.OPTIMAL, kind
            assert sol.objective == pytest.approx(optima[kind], rel=1e-9, abs=1e-9), kind
        # the named row binds: without it the worst latency rises by far
        # more than HiGHS's gap
        lat_max = single_objective(reg, model, "lat_max")
        rows = [row for row in lat_max.constraints if row.tag != binding]
        assert len(rows) == len(lat_max.constraints) - 1
        status, relaxed = scipy_milp(BilpModel(lat_max.catalog, rows, lat_max.objective,
                                               lat_max.objective_offset))
        assert status == 0
        assert relaxed > optima["lat_max"] + 1.0


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
        ("C0 inf", r"bad\.sol:1: value inf is not binary"),
        ("C0 nan", r"bad\.sol:1: value nan is not binary"),
        ("C0 abc", r"bad\.sol:1: value 'abc' is not a number"),
    ])
    def test_malformed_lines_are_rejected(self, weighted, tmp_path, line, msg):
        name = weighted.catalog.names[0]
        p = tmp_path / "bad.sol"
        p.write_text(line.replace("C0", name) + "\n")
        with pytest.raises(ValueError, match=msg):
            read_solution(p, weighted)


def sidecar_edited(round_trip, tmp_path, edit):
    """A copy of the round trip's MPS file whose sidecar ``edit`` changed
    in place; each of these used to end in a bare KeyError or IndexError."""
    path, _ = round_trip
    sidecar = json.loads(path.with_name(path.stem + ".columns.json").read_text())
    edit(sidecar)
    out = tmp_path / "edited.mps"
    out.write_text(path.read_text())
    out.with_name("edited.columns.json").write_text(json.dumps(sidecar))
    return out


class TestSidecarErrors:
    @pytest.mark.parametrize("drop,missing", [
        (lambda s: s.pop("catalog"), "'catalog'"),
        (lambda s: s["catalog"].pop("task_order"), "'task_order'"),
        (lambda s: s["catalog"]["candidates"][3].pop("primary"), "'primary'"),
        (lambda s: s["catalog"]["arcs"][0].pop("dst_dev"), "'dst_dev'"),
    ], ids=["catalog", "task_order", "candidate-primary", "arc-dst_dev"])
    def test_a_missing_key_is_named(self, round_trip, tmp_path, drop, missing):
        bad = sidecar_edited(round_trip, tmp_path, drop)
        with pytest.raises(ValueError, match=r"edited\.columns\.json: missing key " + missing):
            read_mps(bad)

    @pytest.mark.parametrize("entry,var", [
        (("candidates", 3), 999), (("candidates", 3), 4), (("candidates", 3), "3"),
        (("arcs", 0), 0),
    ], ids=["candidate-999", "candidate-next", "candidate-string", "arc-0"])
    def test_a_var_off_its_position_is_refused(self, round_trip, tmp_path, entry, var):
        family, k = entry
        bad = sidecar_edited(round_trip, tmp_path,
                             lambda s: s["catalog"][family][k].update(var=var))
        with pytest.raises(ValueError, match=r"edited\.columns\.json: variable \d+ has var "):
            read_mps(bad)

    @pytest.mark.parametrize("family,key", [
        ("candidates", "task"), ("arcs", "src_task"), ("arcs", "dst_task"),
    ])
    def test_a_task_outside_task_order_is_refused(self, round_trip, tmp_path, family, key):
        bad = sidecar_edited(round_trip, tmp_path,
                             lambda s: s["catalog"][family][2].update({key: "nope"}))
        with pytest.raises(ValueError, match=r"edited\.columns\.json: variable \d+ "
                                             r"names task 'nope', which is not in task_order"):
            read_mps(bad)

    @pytest.mark.parametrize("family", ["candidates", "arcs"])
    def test_entries_out_of_order_are_refused(self, round_trip, tmp_path, family):
        # the first and the last entry swap places, each keeping its position's var
        def swap(sidecar):
            entries = sidecar["catalog"][family]
            first, last = entries[0], entries[-1]
            first["var"], last["var"] = last["var"], first["var"]
            entries[0], entries[-1] = last, first

        bad = sidecar_edited(round_trip, tmp_path, swap)
        with pytest.raises(ValueError, match=r"edited\.columns\.json: variable \d+ is "
                                             r"out of order: candidates come task by task"):
            read_mps(bad)

    def test_a_task_named_twice_in_task_order_is_refused(self, round_trip, tmp_path):
        # read back, it left the first t1 without candidates, which only
        # the first solve reported
        bad = sidecar_edited(round_trip, tmp_path,
                             lambda s: s["catalog"]["task_order"].append("t1"))
        with pytest.raises(ValueError, match=r"edited\.columns\.json: task_order "
                                             r"names a task twice"):
            read_mps(bad)
