"""The root relaxation: the vectorized max-sum diffusion against the
task-order loop it replaces, its wave schedule, and the fit check."""

import itertools
import math
import random

import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from ehcalloc import pipeline, solver
from conftest import small_instance
from ehcalloc.bilp import (
    ArcVar,
    BilpModel,
    CandidateVar,
    NormalizationBounds,
    ObjectiveWeights,
    VariableCatalog,
    single_objective,
    weighted_objective,
)
from ehcalloc.solver import (
    DIFFUSION_SWEEPS,
    SolverOptions,
    SolverStatus,
    _TaskChoiceSearch,
    export_mps,
    read_mps,
    solve_all,
    solve_builtin,
    verify,
)

HALF = ObjectiveWeights(0.5, 0.5)
KINDS = ("rel_max", "rel_min", "lat_max", "lat_min")
FIELDS = ("crobj", "arobj", "arc_max", "task_max", "arc_bound", "bound")


def fields(relax) -> dict:
    """The fields of a relaxation, as lists (``crobj`` is a vector)."""
    out = {name: getattr(relax, name) for name in FIELDS}
    out["crobj"] = list(out["crobj"])
    return out


def candidates(search: _TaskChoiceSearch) -> list[list[tuple]]:
    """Per task, per candidate: its primary device and budget pairs."""
    cat, lay = search.cat, search.lay
    return [[(cat.candidates[i].primary, lay.budget[cat.candidates[i].var]) for i in positions]
            for positions in cat.options]


def reference_relax(search: _TaskChoiceSearch, lam: list[float]) -> dict:
    """The fields of the relaxation of ``search`` at multipliers ``lam``,
    computed by the plain-Python loop: the budget rows dualized, then
    ``DIFFUSION_SWEEPS`` sweeps over the diffusion groups in task order,
    each group updated in turn (Gauss-Seidel).  They are laid out as the
    solver lays them out: candidates flat, task by task, arcs in the
    layout's order and the best pair per arc side and device code.  The
    solver must return these, float for float."""
    cat, lay, obj = search.cat, search.lay, search.model.objective
    cands = candidates(search)
    weight = [0.0] * len(lay.rhs)
    for r, value in zip(lay.dual_rows, lam):
        weight[r] = value / lay.rhs[r]
    cval = [[value - sum(weight[r] * coeff for r, coeff in rows)
             for value, (_, rows) in zip(values, recs)]
            for values, recs in zip(search.cobj, cands)]
    aval = {a.var: obj.get(a.var, 0.0) - sum(weight[r] * coeff for r, coeff in lay.budget[a.var])
            for a in cat.arcs}

    # per task, its candidates' primary devices in first-seen order, and the
    # diffusion groups: a task, one of its devices, its candidates there, and
    # per incident arc side the arc's (other device, arc variable) pairs
    devices = [list(dict.fromkeys(primary for primary, _ in recs)) for recs in cands]
    layout_groups = []
    for t, (recs, devs) in enumerate(zip(cands, devices)):
        for dev in devs:
            incident = [(p, s, list(cat.ends[p][s].get(dev, {}).items()))
                        for p, s, _ in lay.incident[t]]
            if incident and all(terms for _, _, terms in incident):
                members = [k for k, rec in enumerate(recs) if rec[0] == dev]
                layout_groups.append((t, dev, members, incident))

    msgs = [tuple({dev: 0.0 for dev in end} for end in ends) for ends in cat.ends]
    groups = [(dev, max(cval[t][k] for k in members),
               [(msgs[p][s], msgs[p][1 - s], [(o, aval[var]) for o, var in terms])
                for p, s, terms in incident])
              for t, dev, members, incident in layout_groups]
    for _ in range(DIFFUSION_SWEEPS):
        for dev, base, incident in groups:
            marginals = [max(val - other[o] for o, val in terms) - mine[dev]
                         for mine, other, terms in incident]
            u = base + sum(mine[dev] for mine, _, _ in incident)
            avg = (u + sum(marginals)) / (1 + len(marginals))
            for (mine, _, _), m in zip(incident, marginals):
                mine[dev] += m - avg

    gains = [{dev: sum(msgs[p][s].get(dev, 0.0) for p, s, _ in incident) for dev in devs}
             for devs, incident in zip(devices, lay.incident)]
    crobj = [[value + gain[primary] for value, (primary, _) in zip(values, recs)]
             for values, recs, gain in zip(cval, cands, gains)]
    arobj: dict[int, float] = {}
    arc_max = []
    for (src, dst), (m_src, m_dst) in zip(cat.ends, msgs):
        for k, row in src.items():
            for l, var in row.items():
                arobj[var] = aval[var] - m_src[k] - m_dst[l]
        arc_max.append(tuple(
            {dev: max(arobj[var] for var in row.values()) for dev, row in end.items()}
            for end in (src, dst)))
    constant = sum(weight[r] * lay.row_cap[r] for r in lay.dual_rows)
    task_max = [max(terms) for terms in crobj]
    arc_bound = [max(by_src.values(), default=-math.inf) for by_src, _ in arc_max]
    return {"crobj": [term for terms in crobj for term in terms],
            "arobj": [arobj[var] for var in lay.arc_vars],
            "arc_max": [side.get(dev, -math.inf) for sides in arc_max for side in sides
                        for dev in lay.devices],
            "task_max": task_max, "arc_bound": arc_bound,
            "bound": constant + sum(task_max) + sum(arc_bound)}


def reference_slope(search: _TaskChoiceSearch, relax) -> list[float]:
    """Per dualized row, ``(row_cap - A x) / rhs`` at the pick x that takes
    every task's first best candidate, summed in Python from 0.0: tasks in
    order, then arcs.  The solver's fit check must return this, float for
    float."""
    cat, lay = search.cat, search.lay
    usage = [0.0] * len(lay.rhs)
    primary = []
    terms = list(relax.crobj)
    for best, recs, a, b in zip(relax.task_max, candidates(search), lay.first, lay.first[1:]):
        dev, rows = recs[terms[a:b].index(best)]
        primary.append(dev)
        for r, coeff in rows:
            usage[r] += coeff
    for (i, j), (src, _) in zip(cat.pairs, cat.ends):
        var = src.get(primary[i], {}).get(primary[j])
        for r, coeff in lay.budget[var] if var is not None else ():
            usage[r] += coeff
    return [(lay.row_cap[r] - usage[r]) / lay.rhs[r] for r in lay.dual_rows]


def relaxations_tried(model):
    """Every relaxation Kelley's method builds for ``model``, from the
    one at zero multipliers on."""
    search = _TaskChoiceSearch(model, SolverOptions())
    seen = []
    relax = search._relax

    def recorded(lam):
        seen.append(relax(lam))
        return seen[-1]

    search._relax = recorded
    search._multipliers()
    return search, seen


def assert_same_relaxations(model):
    search, seen = relaxations_tried(model)
    assert seen and seen[0].lam == [0.0] * len(search.lay.dual_rows)
    for relax in seen:
        ref, got = reference_relax(search, relax.lam), fields(relax)
        for name in FIELDS:
            assert got[name] == ref[name], name
        assert relax.slope == reference_slope(search, relax)
    return seen


def objectives(reg, model, bounds):
    return [single_objective(reg, model, kind) for kind in KINDS] + \
        [weighted_objective(reg, model, HALF, bounds)]


class TestSameRelaxation:
    def test_fixture(self, topology, workflow, policy):
        reg, model = e.prepare(topology, workflow, policy)
        bounds = e.normalization_bounds(reg, model, None)
        for aux in objectives(reg, model, bounds):
            assert_same_relaxations(aux)

    @pytest.mark.parametrize("structure, n", [
        (structure, n) for n in (10, 15, 40) for structure in ("serial", "mixed", "parallel")
    ] + [("mixed", 60)])
    def test_synthetic(self, topology, policy, structure, n):
        graph = sg.generate(sg.GenSpec(task_count=n, structure=structure, seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        # any bounds with nonzero spans give a weighted objective to relax
        bounds = NormalizationBounds(rel_min=-1.0, rel_max=0.0, lat_min=0.0, lat_max=100.0)
        multipliers = 0
        for aux in objectives(reg, model, bounds):
            multipliers += len(assert_same_relaxations(aux)) - 1
        if n == 40 and structure == "mixed":
            # not vacuous: the worst latency dualizes its budgets
            assert multipliers > 0


def roots_handed_out(models, monkeypatch):
    """The (model, root) each solve of ``solve_all(models)`` starts from;
    the searches themselves are skipped."""
    seen = []

    def record(search):
        seen.append((search.model, search.root))
        return solver.Solution(SolverStatus.TIME_LIMIT, None, None, None)

    with monkeypatch.context() as patched:
        patched.setattr(_TaskChoiceSearch, "run", record)
        assert len(list(solve_all(models))) == len(models)
    return seen


class TestBatchedRoots:
    """solve_all diffuses the roots of its models' objectives in batches;
    each solve starts from its own objective's root, which equals that
    objective relaxed alone, float for float."""

    def assert_columns_are_single_roots(self, models, monkeypatch):
        seen = roots_handed_out(models, monkeypatch)
        assert [model for model, _ in seen] == models
        for model, root in seen:
            search = _TaskChoiceSearch(model, SolverOptions())
            alone = search._relax([0.0] * len(search.lay.dual_rows))
            assert root.lam == alone.lam
            assert root.slope == alone.slope
            assert fields(root) == fields(alone)

    def test_fixture_normalization_and_sweep_objectives(self, topology, workflow, policy,
                                                         monkeypatch):
        reg, model = e.prepare(topology, workflow, policy)
        bounds = e.normalization_bounds(reg, model, None)
        self.assert_columns_are_single_roots([single_objective(reg, model, kind)
                                              for kind in KINDS], monkeypatch)
        self.assert_columns_are_single_roots(
            [weighted_objective(reg, model, ObjectiveWeights(i / 20, 1.0 - i / 20), bounds)
             for i in range(21)], monkeypatch)

    @pytest.mark.parametrize("structure", ["serial", "mixed", "parallel"])
    def test_synthetic_40(self, topology, policy, structure, monkeypatch):
        graph = sg.generate(sg.GenSpec(task_count=40, structure=structure, seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        bounds = NormalizationBounds(rel_min=-1.0, rel_max=0.0, lat_min=0.0, lat_max=100.0)
        self.assert_columns_are_single_roots(objectives(reg, model, bounds), monkeypatch)

    def diffusion_shapes(self, monkeypatch):
        """Per diffusion call from now on, the shape of its objective
        block past the terms: ``(k,)`` for k columns, ``()`` for one."""
        shapes = []
        relax = solver._Layout.relax

        def counted(self, cvals, avals, lam, expired):
            shapes.append(cvals.shape[1:])
            return relax(self, cvals, avals, lam, expired)

        monkeypatch.setattr(solver._Layout, "relax", counted)
        return shapes

    def test_a_sweep_diffuses_its_roots_in_two_batches(self, topology, workflow, policy,
                                                        monkeypatch):
        # every budget fits at zero multipliers on the fixture, so Kelley's
        # method adds no diffusion: the four normalization roots are one
        # batch, the 21 grid points' another, and no solve diffuses alone
        shapes = self.diffusion_shapes(monkeypatch)
        result = pipeline.sweep(topology, workflow, policy, steps=20)
        assert [row["status"] for row in result.rows] == ["optimal"] * 21
        assert shapes == [(4,), (21,)]

    def test_a_long_sweep_diffuses_in_bounded_batches(self, topology, workflow, policy,
                                                      monkeypatch):
        # the grid's models are built and diffused ROOT_BATCH at a time,
        # and a lone last model diffuses its root as plain vectors; the
        # rows are the ones a single batch gives
        whole = pipeline.sweep(topology, workflow, policy, steps=20).rows
        monkeypatch.setattr(solver, "ROOT_BATCH", 10)
        shapes = self.diffusion_shapes(monkeypatch)
        assert pipeline.sweep(topology, workflow, policy, steps=20).rows == whole
        assert shapes == [(4,), (10,), (10,), ()]

    def test_the_shared_cache_keeps_no_root(self, topology, workflow, policy):
        # roots are passed to each solve, so a prepared model's cache holds
        # only what its rows give, mid-batch and after the batch is closed
        reg, model = e.prepare(topology, workflow, policy)
        models = [single_objective(reg, model, kind) for kind in KINDS]
        derived = {"raw objectives", "row index", "search layout"}
        solutions = solve_all(models)
        next(solutions)
        assert set(model._shared) == derived
        solutions.close()
        assert set(model._shared) == derived
        assert [sol.objective for sol in solve_all(models)] == \
            [solve_builtin(m).objective for m in models]

    def test_models_of_two_layouts_are_refused(self, topology, workflow, policy):
        models = [single_objective(*e.prepare(topology, workflow, policy), "lat_max")
                  for _ in range(2)]
        with pytest.raises(ValueError, match="share one catalog"):
            list(solve_all(models))


class TestFitCheck:
    """The fit check of a batch of roots, one bincount over every column's
    pick, equals the per-column Python loop float for float: the slope
    Kelley's method cuts with, nonnegative exactly when the pick fits."""

    def slopes(self, models, monkeypatch):
        """Per model, its batched root's slope and the reference slope."""
        out = []
        for model, root in roots_handed_out(models, monkeypatch):
            search = _TaskChoiceSearch(model, SolverOptions())
            out.append((root.slope, reference_slope(search, root)))
        return out

    def test_fixture_sweep_columns(self, topology, workflow, policy, monkeypatch):
        reg, model = e.prepare(topology, workflow, policy)
        bounds = e.normalization_bounds(reg, model, None)
        models = [weighted_objective(reg, model, ObjectiveWeights(i / 20, 1.0 - i / 20), bounds)
                  for i in range(21)]
        for slope, ref in self.slopes(models, monkeypatch):
            assert slope == ref and min(slope) >= 0.0

    @pytest.mark.parametrize("structure", ["serial", "mixed", "parallel"])
    def test_normalization_columns_at_40(self, topology, policy, structure, monkeypatch):
        graph = sg.generate(sg.GenSpec(task_count=40, structure=structure, seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        models = [single_objective(reg, model, kind) for kind in KINDS]
        slopes = self.slopes(models, monkeypatch)
        for slope, ref in slopes:
            assert slope == ref
        if structure == "mixed":
            # not vacuous: the worst latency's best pick overruns a budget
            slope, _ = slopes[KINDS.index("lat_max")]
            assert min(slope) < 0.0


def two_device_model(tasks, arcs, seed=0):
    """Tasks on devices a and b, every device pair on each arc, and
    objective terms drawn from ``seed``; no budget rows."""
    rng = random.Random(seed)
    cands = [CandidateVar(v, t, d, (), f"{t}@{d}")
             for v, (t, d) in enumerate(itertools.product(tasks, "ab"))]
    arc_vars = [ArcVar(len(cands) + v, src, k, dst, l)
                for v, ((src, dst), k, l) in enumerate(itertools.product(arcs, "ab", "ab"))]
    objective = {v: round(rng.uniform(-1.0, 1.0), 3) for v in range(len(cands) + len(arc_vars))}
    return BilpModel(VariableCatalog(list(tasks), cands, arc_vars), [], objective)


def enumerated_optimum(model):
    cat = model.catalog
    return max(model.objective_value(cat.vector(picks))
               for picks in itertools.product(*cat.options))


class TestWaveSchedule:
    @pytest.mark.parametrize("tasks, arcs", [(["t0"], []), (["t0", "t1", "t2"], [])],
                             ids=["single-task", "no-arcs"])
    def test_a_model_without_diffusion_groups(self, tasks, arcs):
        model = two_device_model(tasks, arcs)
        search, seen = relaxations_tried(model)
        assert search.lay.waves == []
        assert fields(seen[0]) == reference_relax(search, seen[0].lam)
        sol = solve_builtin(model)
        assert sol.status is SolverStatus.OPTIMAL
        assert sol.objective == enumerated_optimum(model)

    @pytest.mark.parametrize("seed", range(4))
    def test_neighbours_before_and_after_a_task(self, seed):
        # t1 reads t0's messages of this sweep and t2's of the last one, so
        # each sweep adds two waves: t0, then t1, then t2 with the next t0
        model = two_device_model(["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2")], seed)
        search, seen = relaxations_tried(model)
        assert len(search.lay.waves) == 2 * DIFFUSION_SWEEPS + 1
        ref, got = reference_relax(search, seen[0].lam), fields(seen[0])
        for name in FIELDS:
            assert got[name] == ref[name], name
        sol = solve_builtin(model)
        assert sol.objective == pytest.approx(enumerated_optimum(model), abs=1e-12)

    def test_a_deadline_between_waves_keeps_a_valid_bound(self, topology, workflow, policy,
                                                          monkeypatch):
        reg, model = e.prepare(topology, workflow, policy)
        lat_min = single_objective(reg, model, "lat_min")
        full = solve_builtin(lat_min)
        assert full.status is SolverStatus.OPTIMAL
        whole = _TaskChoiceSearch(lat_min, SolverOptions())._multipliers().bound
        # run() checks first, then diffusion once per sweep's worth of
        # waves: the deadline passes after the first sweep's worth
        calls = []

        def expired(self):
            calls.append(None)
            return len(calls) > 2

        monkeypatch.setattr(_TaskChoiceSearch, "_expired", expired)
        cut = solve_builtin(lat_min, SolverOptions(time_limit=60.0))
        assert cut.status is SolverStatus.TIME_LIMIT and cut.assignment is None
        assert cut.bound >= full.objective
        # the diffusion stopped early: its bound is looser than the whole one
        assert cut.bound - lat_min.objective_offset > whole


class TestOneLayoutPerModel:
    @pytest.fixture
    def built(self, monkeypatch):
        models = []
        init = solver._Layout.__init__

        def spy(self, model):
            models.append(model)
            init(self, model)

        monkeypatch.setattr(solver._Layout, "__init__", spy)
        return models

    def test_a_solve_builds_one(self, topology, built, monkeypatch):
        relaxed = []
        relax = _TaskChoiceSearch._relax

        def counted(self, lam):
            relaxed.append(list(lam))
            return relax(self, lam)

        monkeypatch.setattr(_TaskChoiceSearch, "_relax", counted)
        topo, graph, policy = small_instance(topology, 1)
        plan, _ = pipeline.solve_allocation(topo, graph, policy, HALF)
        assert plan.status == "optimal"
        assert len(built) == 1
        # five solves, and Kelley's method tried multipliers in some
        assert len(relaxed) > 5 and any(any(lam) for lam in relaxed)

    def test_a_sweep_builds_one(self, topology, workflow, policy, built):
        result = pipeline.sweep(topology, workflow, policy, steps=4)
        assert len(result.rows) == 5
        assert len(built) == 1

    def test_export_read_back_and_verify_build_none(self, topology, policy, built, tmp_path):
        graph = sg.generate(sg.GenSpec(task_count=10, structure="mixed", seed=1),
                            tuple(topology.devices))
        reg, model = e.prepare(topology, graph, policy)
        aux = single_objective(reg, model, "lat_max")
        clone = read_mps(export_mps(aux, tmp_path / "lat_max.mps"))
        x = model.catalog.vector([options[-1] for options in model.catalog.options])
        assert verify(aux, x) == verify(clone, x)
        assert built == []
