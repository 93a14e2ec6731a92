"""Independent reference implementations: enumeration and simulation."""

import math

import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from ehcalloc.bilp import (
    ObjectiveWeights,
    build_model,
    normalization_bounds,
    objective_latency,
    objective_reliability,
)
from ehcalloc.model import TaskSpec, WorkflowGraph
from ehcalloc.oracle import (
    ENUMERATION_GUARD,
    _arc_tables,
    brute_force,
    monte_carlo_reliability,
    oracle_bounds,
    raw_objectives,
)
from ehcalloc.pipeline import assignment_from_picks
from ehcalloc.solver import solve_builtin


@pytest.fixture(scope="module")
def fixture_reg(topology, workflow, policy):
    return e.build_reg(e.build_eg(workflow, topology), policy)


@pytest.fixture(scope="module")
def small_reg(topology):
    from conftest import small_instance

    topo, graph, policy = small_instance(topology, 0)
    return e.build_reg(e.build_eg(graph, topo), policy)


class TestRawObjectives:
    def test_matches_the_model_coefficient_route(self, fixture_reg):
        reg = fixture_reg
        model = build_model(reg)
        picks = [cands[0] for cands in
                 (reg.candidates_for_task(t) for t in reg.graph.task_ids)]
        x = assignment_from_picks(reg, model, picks)
        rel_coeffs = objective_reliability(reg, model.catalog)
        lat_coeffs = objective_latency(reg, model.catalog)
        want_rel = sum(c * x[v] for v, c in rel_coeffs.items())
        want_lat = sum(c * x[v] for v, c in lat_coeffs.items())
        f_rel, f_lat = raw_objectives(reg, [reg.candidates[i] for i in picks])
        assert f_rel == pytest.approx(want_rel, rel=1e-12)
        assert f_lat == pytest.approx(want_lat, rel=1e-12)

    def test_reliability_term_is_log_of_the_product(self, fixture_reg):
        reg = fixture_reg
        picks = [cands[-1] for cands in
                 (reg.candidates_for_task(t) for t in reg.graph.task_ids)]
        cands = [reg.candidates[i] for i in picks]
        f_rel, _ = raw_objectives(reg, cands)
        product = math.prod(c.reliability for c in cands)
        assert math.exp(f_rel) == pytest.approx(product, rel=1e-12)


class TestArcTables:
    @pytest.mark.parametrize("instance", ["fixture", "mixed-40"])
    def test_eg_arcs_price_transfers_as_the_oracle_does(self, topology, workflow,
                                                        policy, instance):
        graph = workflow if instance == "fixture" else sg.generate(
            sg.GenSpec(task_count=40, structure="mixed", seed=1), tuple(topology.devices))
        reg = e.build_reg(e.build_eg(graph, topology), policy)
        # the oracle charges only devices with a finite energy budget
        finite = {d.id for d in topology.devices if not d.energy_unbounded}
        tables = dict(_arc_tables(reg))
        for arc in reg.arcs:
            latency, shares = tables[(arc.src_task, arc.dst_task)][(arc.src_dev, arc.dst_dev)]
            assert arc.latency == latency
            assert {d: j for d, j in arc.per_device_energy if d in finite} == shares
        assert any(len(arc.per_device_energy) == 3 for arc in reg.arcs)


#: g = f_rel + 1 under these bounds and weights, so each point's score is
#: set through its f_rel
SCORE_BOUNDS = e.NormalizationBounds(rel_min=-1.0, rel_max=0.0, lat_min=0.0, lat_max=1.0)
REL_ONLY = ObjectiveWeights(1.0, 0.0)


def scored(*points):
    """``(vector, g)`` pairs as the points :func:`brute_force` reads."""
    return [(vec, g - 1.0, 0.5) for vec, g in points]


class TestTieRule:
    """Ties as the solver breaks them: within ``1e-9 * max(1, |g|)`` of the
    best score, the lexicographically smallest vector wins."""

    def choose(self, reg, points):
        result = brute_force(reg, REL_ONLY, SCORE_BOUNDS, points=scored(*points))
        return result.choices, result.objective

    def test_an_exact_tie_goes_to_the_smaller_vector(self, small_reg):
        points = [((1, 0), 0.5), ((0, 1), 0.5)]
        assert self.choose(small_reg, points) == ((0, 1), 0.5)
        assert self.choose(small_reg, points[::-1]) == ((0, 1), 0.5)

    def test_a_near_tie_from_summing_in_another_order(self, small_reg):
        # the smaller vector scores a rounding error lower; it still ties
        points = [((1, 0), 0.5), ((0, 1), 0.5 - 1e-15)]
        assert self.choose(small_reg, points) == ((0, 1), 0.5 - 1e-15)

    def test_a_clear_winner_beats_a_smaller_vector(self, small_reg):
        points = [((0, 1), 0.5 - 1e-6), ((1, 0), 0.5)]
        assert self.choose(small_reg, points) == ((1, 0), 0.5)

    def test_ties_are_taken_against_the_final_best(self, small_reg):
        # each point is within the tolerance of the one before, but only
        # the last two are within it of the best
        a, b, c = 0.5, 0.5 + 0.6e-9, 0.5 + 1.2e-9
        points = [((0, 0), a), ((1, 0), b), ((2, 0), c)]
        assert self.choose(small_reg, points)[0] == (1, 0)
        assert self.choose(small_reg, points[::-1])[0] == (1, 0)

    def test_the_tolerance_is_relative_above_one(self, small_reg):
        big = 4.0e3
        points = [((1, 0), big), ((0, 1), big - 3e-6), ((0, 0), big - 5e-6)]
        assert self.choose(small_reg, points)[0] == (0, 1)


class TestBruteForce:
    def test_enumerates_the_whole_space(self, small_reg):
        reg = small_reg
        bounds = oracle_bounds(reg)
        result = brute_force(reg, ObjectiveWeights(0.5, 0.5), bounds)
        space = math.prod(len(reg.candidates_for_task(t))
                          for t in reg.graph.task_ids)
        assert result.enumerated == space
        assert 0 < result.feasible_count <= space
        assert result.status == "optimal"

    def test_guard_refuses_oversized_spaces(self, fixture_reg, small_reg):
        bounds = oracle_bounds(small_reg)
        with pytest.raises(ValueError, match="guard"):
            brute_force(small_reg, ObjectiveWeights(0.5, 0.5), bounds, guard=10)
        with pytest.raises(ValueError, match="guard"):
            oracle_bounds(small_reg, guard=10)
        # the bundled ten-task workflow is far past the default guard
        with pytest.raises(ValueError, match="guard"):
            oracle_bounds(fixture_reg)
        assert ENUMERATION_GUARD == 10_000_000

    def test_infeasible_reported_as_such(self, topology, policy):
        t = TaskSpec(id="big", memory=1e12, storage=1e6, output_size=0.0,
                     allowed_devices=("e", "h"),
                     exec_time={"e": 1.0, "h": 0.5},
                     power={"e": 2.0, "h": 8.1},
                     vulnerability={"e": 0.05, "h": 0.05})
        reg = e.build_reg(e.build_eg(WorkflowGraph([t], []), topology), policy)
        result = brute_force(
            reg, ObjectiveWeights(0.5, 0.5),
            e.NormalizationBounds(rel_min=-1, rel_max=0, lat_min=0, lat_max=1))
        assert result.status == "infeasible"
        assert result.feasible_count == 0 and result.choices is None

    def test_bounds_agree_with_dedicated_solves(self, small_reg):
        reg = small_reg
        model = build_model(reg)
        fast = normalization_bounds(reg, model, None)
        slow = oracle_bounds(reg)
        assert fast.rel_min == pytest.approx(slow.rel_min, rel=1e-12)
        assert fast.rel_max == pytest.approx(slow.rel_max, rel=1e-12)
        assert fast.lat_min == pytest.approx(slow.lat_min, rel=1e-12)
        assert fast.lat_max == pytest.approx(slow.lat_max, rel=1e-12)


class TestMonteCarlo:
    def test_single_task_frequency_matches_closed_form(self, topology, policy):
        t = TaskSpec(id="t", memory=1e5, storage=1e5, output_size=0.0,
                     allowed_devices=("e", "h"),
                     exec_time={"e": 1.0, "h": 1.0},
                     power={"e": 2.0, "h": 2.0},
                     vulnerability={"e": 0.30, "h": 0.04})
        reg = e.build_reg(e.build_eg(WorkflowGraph([t], []), topology), policy)
        # pick the triple-execution candidate with all replicas on e
        idx = next(i for i, c in enumerate(reg.candidates)
                   if c.key == "t@e+e,e")
        p_hat, stderr = monte_carlo_reliability(reg, [idx], samples=200_000,
                                                seed=7)
        exact = 1.0 - 0.30 ** 3
        assert stderr < 1e-2
        assert abs(p_hat - exact) <= 3.0 * stderr

    def test_plan_level_frequency_matches_product(self, fixture_reg):
        reg = fixture_reg
        sol = solve_builtin(build_model(reg).with_objective(
            objective_reliability(reg, build_model(reg).catalog)))
        picks = build_model(reg).catalog.picks(sol.assignment)
        exact = math.prod(reg.candidates[i].reliability for i in picks)
        p_hat, stderr = monte_carlo_reliability(reg, picks, samples=150_000,
                                                seed=123)
        assert abs(p_hat - exact) <= 3.0 * max(stderr, 1e-6)

    def test_deterministic_given_seed(self, fixture_reg):
        reg = fixture_reg
        picks = [cands[0] for cands in
                 (reg.candidates_for_task(t) for t in reg.graph.task_ids)]
        a = monte_carlo_reliability(reg, picks, samples=5_000, seed=42)
        b = monte_carlo_reliability(reg, picks, samples=5_000, seed=42)
        c = monte_carlo_reliability(reg, picks, samples=5_000, seed=43)
        assert a == b
        assert a != c

    def test_rejects_nonpositive_samples(self, fixture_reg):
        reg = fixture_reg
        with pytest.raises(ValueError):
            monte_carlo_reliability(reg, [0], samples=0)
