"""``verify`` reads the model's row index: every row's left-hand side in
one array sum.  The row-by-row loop it replaces is kept here as the
reference; both must give the same messages, in the same order."""

import math
import random

import numpy as np
import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from ehcalloc import pipeline, solver
from ehcalloc.bilp import BilpModel, LinearConstraint, single_objective
from ehcalloc.solver import _tol, export_mps, read_mps, verify


def reference_verify(model: BilpModel, assignment) -> list[str]:
    """Every binary check, then every row in turn, each lhs summed by
    ``LinearConstraint.lhs``: the loop ``verify`` ran before the index."""
    issues: list[str] = []
    for i, v in enumerate(assignment):
        if v not in (0, 1):
            issues.append(f"variable {model.catalog.names[i]} is {v!r}, not binary")
    for row in model.constraints:
        lhs = row.lhs(assignment)
        if row.sense == "<=":
            if not lhs <= row.rhs + _tol(row.rhs):
                issues.append(f"{row.tag}: {lhs!r} exceeds {row.rhs!r}")
        elif not abs(lhs - row.rhs) <= _tol(row.rhs):
            issues.append(f"{row.tag}: {lhs!r} != {row.rhs!r}")
    return issues


def vectors(model: BilpModel, seed: int, count: int):
    """Random 0/1 vectors, some with a 0.5 or a 2 entry, and the plan that
    takes every task's first candidate."""
    rng = random.Random(seed)
    cat = model.catalog
    yield cat.vector([options[0] for options in cat.options])
    for k in range(count):
        x = [rng.randint(0, 1) for _ in range(cat.n_vars)]
        if k % 3 == 1:
            x[rng.randrange(cat.n_vars)] = rng.choice([0.5, 2])
        yield x


@pytest.fixture(scope="module")
def models(topology, workflow, policy):
    out = {}
    for name, graph in [
        ("fixture", workflow),
        ("mixed-20", sg.generate(sg.GenSpec(task_count=20, structure="mixed", seed=1),
                                 tuple(topology.devices))),
        ("serial-12", sg.generate(sg.GenSpec(task_count=12, structure="serial", seed=3),
                                  tuple(topology.devices))),
    ]:
        reg, model = e.prepare(topology, graph, policy)
        out[name] = single_objective(reg, model, "lat_max")
    return out


def with_coefficient(model: BilpModel, tag: str, var: int, value: float) -> BilpModel:
    rows = [LinearConstraint({**row.coeffs, var: value}, row.sense, row.rhs, row.tag)
            if row.tag == tag else row for row in model.constraints]
    return BilpModel(model.catalog, rows, model.objective, model.objective_offset)


class TestAgainstTheRowLoop:
    @pytest.mark.parametrize("name", ["fixture", "mixed-20", "serial-12"])
    def test_random_vectors(self, models, name):
        model = models[name]
        seen = 0
        for x in vectors(model, seed=len(name), count=60):
            got = verify(model, x)
            assert got == reference_verify(model, x)
            seen += len(got)
            # each row's sum is the loop's, float for float
            lhs = solver._row_index(model).lhs(np.asarray(x, dtype=float))
            assert lhs.tolist() == [float(row.lhs(x)) for row in model.constraints]
        assert seen > 0

    def test_the_solver_answer_passes(self, models):
        model = models["fixture"]
        sol = solver.solve_builtin(model)
        assert verify(model, sol.assignment) == reference_verify(model, sol.assignment) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("chosen", [True, False], ids=["chosen", "unchosen"])
    def test_a_non_finite_coefficient(self, models, value, chosen):
        base = models["fixture"]
        cat = base.catalog
        x = cat.vector([options[0] for options in cat.options])
        row = next(r for r in base.constraints if r.sense == "<="
                   and {x[v] for v in r.coeffs} == {0, 1})
        var = next(v for v in row.coeffs if (x[v] == 1) == chosen)
        model = with_coefficient(base, row.tag, var, value)
        got = verify(model, x)
        assert got == reference_verify(model, x)
        # an unchosen column adds inf * 0 or nan * 0, which is nan; only
        # -inf on a chosen column leaves the row below its rhs
        fails = [v for v in got if v.startswith(f"{row.tag}: ")]
        assert len(fails) == (0 if chosen and value == -math.inf else 1)

    def test_integer_rows_print_as_integers(self, models):
        cat = models["fixture"].catalog
        x = cat.vector([options[0] for options in cat.options])
        on = [v for v in range(cat.n_vars) if x[v] == 1][:3]
        off = [v for v in range(cat.n_vars) if x[v] == 0][:2]
        rows = [
            LinearConstraint({on[0]: 2, on[1]: 3}, "<=", 4, "ints_over"),
            LinearConstraint({on[0]: 1, off[0]: 7}, "=", 2, "ints_short"),
            LinearConstraint({on[2]: 1, off[1]: 5}, "=", 1, "ints_exact"),
            LinearConstraint({on[0]: 1.0, on[1]: 2}, "<=", 2.5, "mixed"),
        ]
        model = BilpModel(cat, rows, {})
        got = verify(model, x)
        assert got == reference_verify(model, x) == [
            "ints_over: 5 exceeds 4", "ints_short: 1 != 2", "mixed: 3.0 exceeds 2.5"]

    def test_an_empty_row(self, models):
        cat = models["fixture"].catalog
        x = cat.vector([options[0] for options in cat.options])
        rows = [LinearConstraint({}, "=", 0.0, "empty_ok"),
                LinearConstraint({}, "=", 1.0, "empty_eq"),
                LinearConstraint({}, "<=", -1.0, "empty_le")]
        model = BilpModel(cat, rows, {})
        got = verify(model, x)
        assert got == reference_verify(model, x) == ["empty_eq: 0 != 1.0",
                                                     "empty_le: 0 exceeds -1.0"]


class TestOneIndexPerModel:
    @pytest.fixture
    def indexed(self, monkeypatch):
        models = []
        init = solver._RowIndex.__init__

        def spy(self, rows):
            models.append(rows)
            init(self, rows)

        monkeypatch.setattr(solver._RowIndex, "__init__", spy)
        return models

    def test_a_sweep_builds_one(self, topology, workflow, policy, indexed):
        result = pipeline.sweep(topology, workflow, policy, steps=20)
        assert len(result.rows) == 21
        assert len(indexed) == 1

    def test_a_solve_keeps_one_that_verify_reads(self, topology, workflow, policy, indexed):
        reg, model = pipeline.prepare(topology, workflow, policy)
        lat_max = single_objective(reg, model, "lat_max")
        x = solver.solve_builtin(lat_max).assignment
        assert len(indexed) == 1
        assert verify(model, x) == verify(lat_max, x) == []
        assert len(indexed) == 1

    def test_export_read_back_and_verify_keep_none(self, topology, policy, indexed,
                                                   tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(solver._Layout, "__init__", lambda self, model: built.append(model))
        graph = sg.generate(sg.GenSpec(task_count=10, structure="mixed", seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        aux = single_objective(reg, model, "lat_max")
        clone = read_mps(export_mps(aux, tmp_path / "lat_max.mps"))
        x = model.catalog.vector([options[-1] for options in model.catalog.options])
        assert verify(aux, x) == verify(clone, x) == reference_verify(aux, x)
        # a model never solved builds the index for each check and keeps
        # none, so a model checked once holds no more memory than before
        assert len(indexed) == 2
        assert "row index" not in aux._shared and "row index" not in clone._shared
        assert built == []
