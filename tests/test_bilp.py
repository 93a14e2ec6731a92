"""Model assembly: variable catalog, constraint rows, objectives."""

import math

import pytest

import ehcalloc as e
from ehcalloc.bilp import (
    ArcVar,
    CandidateVar,
    NormalizationBounds,
    ObjectiveWeights,
    VariableCatalog,
    build_catalog,
    build_model,
    model_stats,
    normalization_bounds,
    objective_latency,
    objective_reliability,
    weighted_objective,
)
from ehcalloc.model import TaskSpec, WorkflowGraph
from ehcalloc.oracle import oracle_bounds
from ehcalloc.solver import verify


def small_graph():
    t1 = TaskSpec(id="t1", memory=1e6, storage=1e7, output_size=8e6,
                  allowed_devices=("e", "h"),
                  exec_time={"e": 1.0, "h": 0.5}, power={"e": 2.0, "h": 8.1},
                  vulnerability={"e": 0.01, "h": 0.01})
    t2 = TaskSpec(id="t2", memory=1e6, storage=1e7, output_size=1e6,
                  allowed_devices=("h", "c"),
                  exec_time={"h": 0.5, "c": 0.2}, power={"h": 8.1, "c": 75.1},
                  vulnerability={"h": 0.04, "c": 0.07})
    return WorkflowGraph([t1, t2], [("t1", "t2")])


@pytest.fixture(scope="module")
def reg_model():
    topo = e.reference_topology()
    reg = e.build_reg(e.build_eg(small_graph(), topo), e.default_policy(3))
    return reg, build_model(reg)


class TestCatalog:
    def test_variable_layout_candidates_then_arcs(self, reg_model):
        # the catalog holds the expansion's own records, in its order
        reg, model = reg_model
        cat = model.catalog
        n_c, n_a = len(cat.candidates), len(cat.arcs)
        assert n_c == len(reg.candidates) and n_a == len(reg.arcs)
        fresh = build_catalog(reg)
        assert all(fresh.candidates[i] is reg.candidates[i] for i in range(n_c))
        assert all(fresh.arcs[i] is reg.arcs[i] for i in range(n_a))
        assert cat.n_vars == n_c + n_a
        assert cat.category_counts == {"candidate": n_c, "arc": n_a, "replica": 0,
                                       "total": n_c + n_a}
        assert not any(n.startswith(("P", "S")) for n in cat.names)

    def test_names_encode_category(self, reg_model):
        _, model = reg_model
        cat = model.catalog
        assert cat.names[0].startswith("C")
        assert cat.names[len(cat.candidates)].startswith("A")
        assert len(set(cat.names)) == cat.n_vars
        assert all(len(n) <= 8 for n in cat.names)

    def test_replica_slots_mirror_candidates(self, reg_model):
        # each candidate column carries the per-slot sum of its replica
        # slots on a device, in every budget row of that device
        reg, model = reg_model
        rows = {r.tag: r for r in model.constraints}
        for v, cand in enumerate(reg.candidates):
            task = reg.graph.task(cand.task)
            for d in "ehc":
                slots = [j for _, dev, j in cand.per_replica_energy if dev == d]
                mem = rows[f"memory[{d}]"].coeffs.get(v)
                sto = rows[f"storage[{d}]"].coeffs.get(v)
                if not slots:
                    assert mem is None and sto is None
                    continue
                assert mem == sum([task.memory] * len(slots), 0.0)
                assert sto == sum([task.storage] * len(slots), 0.0)
                if f"energy[{d}]" in rows:
                    assert rows[f"energy[{d}]"].coeffs[v] == sum(slots, 0.0)

    def test_round_trips_through_json(self, reg_model):
        _, model = reg_model
        cat = model.catalog
        clone = type(cat).from_json_dict(cat.to_json_dict())
        assert clone.names == cat.names
        assert clone.task_order == cat.task_order
        assert [(c.task, c.primary, c.replicas) for c in clone.candidates] \
            == [(c.task, c.primary, c.replicas) for c in cat.candidates]
        assert clone.to_json_dict() == cat.to_json_dict()


def hand_catalog(cands, arcs) -> VariableCatalog:
    """A catalog over tasks t1, t2, t3 from (task, device) candidates and
    (source task, device, destination task, device) arcs, in list order."""
    return VariableCatalog(["t1", "t2", "t3"],
                           [CandidateVar(t, d, (), f"{t}@{d}") for t, d in cands],
                           [ArcVar(*arc) for arc in arcs])


CANDS = [("t1", "a"), ("t1", "b"), ("t2", "a"), ("t2", "b"), ("t3", "a")]
ARCS_12 = [("t1", k, "t2", l) for k in "ab" for l in "ab"]
ARCS_23 = [("t2", k, "t3", "a") for k in "ab"]


class TestCatalogOrder:
    def test_a_variable_is_its_position(self):
        cat = hand_catalog(CANDS, ARCS_12 + ARCS_23)
        assert cat.options == [[0, 1], [2, 3], [4]]
        assert [v for src, _ in cat.ends for row in src.values() for v in row.values()] \
            == list(range(len(CANDS), cat.n_vars))

    @pytest.mark.parametrize("cands,arcs,match", [
        ([CANDS[0], CANDS[2], CANDS[1], *CANDS[3:]], ARCS_12 + ARCS_23,
         r"variable 1 is out of order"),
        (CANDS, [("t1", k, "t2", l) for l in "ab" for k in "ab"] + ARCS_23,
         r"variable 6 is out of order"),
        (CANDS, ARCS_12[:2] + ARCS_23 + ARCS_12[2:],
         r"variable 7 is out of order"),
        (CANDS, ARCS_12 + ARCS_12[-1:] + ARCS_23,
         r"variable 8 is out of order"),
    ], ids=["candidates-split-by-another-task", "arcs-by-destination-device",
            "arc-pairs-split-by-another-arc", "arc-pair-twice"])
    def test_any_other_order_is_refused(self, cands, arcs, match):
        with pytest.raises(ValueError, match=match):
            hand_catalog(cands, arcs)


def rows_by_kind(model, kind):
    return [r for r in model.constraints if r.tag.split("[", 1)[0] == kind]


class TestConstraints:
    def test_choose_one_per_task(self, reg_model):
        reg, model = reg_model
        rows = rows_by_kind(model, "choose_one")
        assert len(rows) == 2
        for row in rows:
            task = row.tag[row.tag.index("[") + 1:-1]
            assert set(row.coeffs) == set(reg.candidates_for_task(task))
            assert all(c == 1.0 for c in row.coeffs.values())
            assert row.sense == "=" and row.rhs == 1.0

    def test_marginal_rows_link_arcs_to_placements(self, reg_model):
        # t1 runs on e or h, t2 on h or c: one row per endpoint device, and
        # it takes -1 on every candidate of that task with that primary
        _, model = reg_model
        cat = model.catalog
        assert {r.tag.split("[", 1)[0] for r in model.constraints} == {
            "choose_one", "arc_src", "arc_dst", "memory", "storage", "energy"}
        rows = rows_by_kind(model, "arc_src") + rows_by_kind(model, "arc_dst")
        assert [r.tag for r in rows] == ["arc_src[t1@e->t2]", "arc_src[t1@h->t2]",
                                         "arc_dst[t1->t2@h]", "arc_dst[t1->t2@c]"]
        for row, (task, dev) in zip(rows, [("t1", "e"), ("t1", "h"),
                                           ("t2", "h"), ("t2", "c")]):
            assert row.sense == "=" and row.rhs == 0.0
            want = {v: 1.0 for v, a in enumerate(cat.arcs, start=len(cat.candidates))
                    if (task, dev) in ((a.src_task, a.src_dev), (a.dst_task, a.dst_dev))}
            cands = [v for v, c in enumerate(cat.candidates) if (c.task, c.primary) == (task, dev)]
            assert cands
            want.update(dict.fromkeys(cands, -1.0))
            assert row.coeffs == want

    def test_verify_flags_arcs_that_disagree_with_placements(self, reg_model):
        _, model = reg_model
        cat = model.catalog
        x = cat.vector([cat.options[0][0], cat.options[1][-1]])
        assert verify(model, x) == []
        n_c = len(cat.candidates)
        devs = {v: (a.src_dev, a.dst_dev) for v, a in enumerate(cat.arcs, start=n_c)}
        on = next(v for v in devs if x[v] == 1)
        other = next(v for v in devs if devs[v] != devs[on])
        moved = list(x)
        moved[on], moved[other] = 0, 1
        cleared = list(x)
        cleared[on] = 0
        doubled = list(x)
        doubled[other] = 1
        for bad in (moved, cleared, doubled):
            issues = verify(model, bad)
            assert issues and all(i.startswith(("arc_src[", "arc_dst[")) for i in issues)

    def test_budget_rows_per_device(self, reg_model):
        reg, model = reg_model
        assert len(rows_by_kind(model, "memory")) == 3
        assert len(rows_by_kind(model, "storage")) == 3
        # the cloud's energy budget is unbounded: no row for it
        tags = [r.tag for r in rows_by_kind(model, "energy")]
        assert tags == ["energy[e]", "energy[h]"]

    def test_memory_row_charges_replica_slots(self, reg_model):
        # the candidate column pays 1 MB per replica slot it puts on h
        reg, model = reg_model
        row = next(r for r in model.constraints if r.tag == "memory[h]")
        want = {}
        for v, cand in enumerate(reg.candidates):
            n_h = sum(1 for _, dev, _ in cand.per_replica_energy if dev == "h")
            if n_h:
                want[v] = 1e6 * n_h
        assert row.coeffs == want
        assert any(c == 2e6 for c in want.values())
        assert row.rhs == reg.topology.device("h").memory_budget


def arc_shares(reg, src_dev: str, dst_dev: str) -> dict[str, float]:
    """Per-device joules of the t1 -> t2 arc between two devices."""
    arc = next(a for a in reg.arcs if (a.src_dev, a.dst_dev) == (src_dev, dst_dev))
    return dict(arc.per_device_energy)


class TestArcEnergyShare:
    def test_direct_arc_shares(self, reg_model):
        reg, _ = reg_model
        shares = arc_shares(reg, "h", "c")
        # t1 ships 8 Mbit; h->c costs 2.50 / 1.25 uJ per bit
        assert shares["h"] == pytest.approx(8e6 * 2.5e-6)
        assert shares["c"] == pytest.approx(8e6 * 1.25e-6)
        assert "e" not in shares

    def test_relayed_arc_charges_the_relay(self, reg_model):
        reg, _ = reg_model
        shares = arc_shares(reg, "e", "c")
        # h forwards: receives at 0.70, retransmits at 2.50 uJ/bit
        assert shares["e"] == pytest.approx(8e6 * 1.0e-6)
        assert shares["h"] == pytest.approx(8e6 * (0.70e-6 + 2.5e-6))
        assert shares["c"] == pytest.approx(8e6 * 1.25e-6)

    def test_same_device_arc_is_free(self, reg_model):
        reg, _ = reg_model
        assert arc_shares(reg, "h", "h") == {}


class TestObjectives:
    def test_reliability_coefficients_are_log_reliabilities(self, reg_model):
        reg, model = reg_model
        coeffs = objective_reliability(reg, model.catalog)
        for v, cand in enumerate(reg.candidates):
            assert coeffs[v] == pytest.approx(math.log(cand.reliability))

    def test_latency_covers_candidates_and_arcs(self, reg_model):
        reg, model = reg_model
        coeffs = objective_latency(reg, model.catalog)
        for v, cand in enumerate(reg.candidates):
            assert coeffs[v] == cand.latency
        for v, arc in enumerate(reg.arcs, start=len(reg.candidates)):
            assert coeffs.get(v, 0.0) == arc.latency

    def test_weights_must_be_convex(self):
        ObjectiveWeights(0.3, 0.7)
        with pytest.raises(ValueError):
            ObjectiveWeights(0.3, 0.6)
        with pytest.raises(ValueError):
            ObjectiveWeights(-0.1, 1.1)

    @pytest.mark.parametrize("w_rel,w_lat", [(math.nan, math.nan), (math.nan, 0.5),
                                             (0.5, math.nan)])
    def test_nan_weights_are_rejected(self, w_rel, w_lat):
        with pytest.raises(ValueError):
            ObjectiveWeights(w_rel, w_lat)

    def test_normalization_matches_enumerated_extremes(self, reg_model):
        reg, model = reg_model
        got = normalization_bounds(reg, model, None)
        want = oracle_bounds(reg)
        assert got.rel_min == pytest.approx(want.rel_min, rel=1e-12)
        assert got.rel_max == pytest.approx(want.rel_max, rel=1e-12)
        assert got.lat_min == pytest.approx(want.lat_min, rel=1e-12)
        assert got.lat_max == pytest.approx(want.lat_max, rel=1e-12)

    def test_weighted_objective_value_at_extremes(self, reg_model):
        reg, model = reg_model
        bounds = normalization_bounds(reg, model, None)
        for w_rel, expect_kind in ((1.0, "rel"), (0.0, "lat")):
            weighted = weighted_objective(
                reg, model, ObjectiveWeights(w_rel, 1.0 - w_rel), bounds)
            sol = e.solve_builtin(weighted)
            # at a pure weight the optimum normalizes to exactly 1 (best
            # reliability) or 0 (least latency)
            assert sol.objective == pytest.approx(1.0 if w_rel else 0.0, abs=1e-9)

    def test_degenerate_span_zeroes_the_term(self):
        b = NormalizationBounds(rel_min=-0.5, rel_max=-0.5, lat_min=3.0, lat_max=9.0)
        assert b.rel_degenerate and not b.lat_degenerate
        assert b.normalize_rel(-0.5) == 0.0
        assert b.normalize_lat(6.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("bounds", [
        NormalizationBounds(rel_min=-0.3, rel_max=-0.01, lat_min=3.0, lat_max=9.0),
        NormalizationBounds(rel_min=-0.5, rel_max=-0.5, lat_min=3.0, lat_max=9.0),
        NormalizationBounds(rel_min=-0.3, rel_max=-0.01, lat_min=4.0, lat_max=4.0),
        NormalizationBounds(rel_min=-0.5, rel_max=-0.5, lat_min=4.0, lat_max=4.0),
    ], ids=["both", "lat-only", "rel-only", "neither"])
    @pytest.mark.parametrize("w_rel", [0.0, 0.3, 1.0])
    def test_weighted_objective_is_the_dict_loop_it_replaces(self, reg_model, bounds, w_rel):
        reg, model = reg_model
        weights = ObjectiveWeights(w_rel, 1.0 - w_rel)
        coeffs, offset = {}, 0.0
        if not bounds.rel_degenerate:
            scale = weights.w_rel / bounds.rel_span
            for v, c in objective_reliability(reg, model.catalog).items():
                coeffs[v] = coeffs.get(v, 0.0) + scale * c
            offset -= scale * bounds.rel_min
        if not bounds.lat_degenerate:
            scale = weights.w_lat / bounds.lat_span
            for v, c in objective_latency(reg, model.catalog).items():
                coeffs[v] = coeffs.get(v, 0.0) - scale * c
            offset += scale * bounds.lat_min
        weighted = weighted_objective(reg, model, weights, bounds)
        # the same floats, signs of zero included, in the same key order
        assert list(weighted.objective.items()) == list(coeffs.items())
        assert [math.copysign(1.0, c) for c in weighted.objective.values()] == \
            [math.copysign(1.0, c) for c in coeffs.values()]
        assert weighted.objective_offset == offset

    def test_stats_totals(self, reg_model):
        _, model = reg_model
        stats = model_stats(model)
        assert stats["variables"]["total"] == model.catalog.n_vars
        assert stats["constraints"]["total"] == len(model.constraints)
