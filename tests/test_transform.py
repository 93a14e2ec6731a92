"""Two-step expansion: device-expanded graph, then redundancy candidates.

Expected numbers are derived by hand from the reference system:
channels e->h 11 Mbit/s (tx 1.00, rx 0.70 uJ/bit), h->e 8.5 (1.00, 0.70),
h->c 12.5 (2.50, 1.25), c->h 20 (2.50, 1.25); e<->c relayed via h;
compare/vote overheads e 1.00/1.50 us at 1.20/1.21 W, h 0.02/0.03 us at
8.02/8.03 W, c 0.01/0.02 us at 75.23/75.26 W.
"""

import math

import pytest

import ehcalloc.synthgen as sg
from ehcalloc import build_eg, build_reg, default_policy, inspection_workflow, reference_topology
from ehcalloc.model import CriticalityPolicy, TaskSpec, WorkflowGraph
from ehcalloc.bilp import build_model
from ehcalloc.params import ExecMode, exec_mode, links
from ehcalloc.transform import candidate_vulnerability, eg_summary, placement_costs, reg_summary

IN_BITS = 12.5e6     # parent output shipped to every foreign replica
OUT_BITS = 20e6      # result shipped back per replica


def one_candidate(topo, task, primary, replicas):
    """Completion time (seconds) and per-slot joules of one candidate."""
    return placement_costs(topo, task, primary, [replicas], IN_BITS, links(topo))[0]


def placement_modes(reg):
    """Each (task, primary) placement's mode, read off its candidates,
    which must all agree on it."""
    modes = {}
    for cand in reg.candidates:
        assert modes.setdefault((cand.task, cand.primary), cand.mode) is cand.mode
    return modes


@pytest.fixture(scope="module")
def topo():
    return reference_topology()


@pytest.fixture(scope="module")
def task():
    return TaskSpec(
        id="t", memory=1e7, storage=1e8, output_size=OUT_BITS,
        allowed_devices=("e", "h", "c"),
        exec_time={"e": 2.0, "h": 1.0, "c": 0.4},
        power={"e": 2.5, "h": 8.5, "c": 75.25},
        vulnerability={"e": 0.05, "h": 0.02, "c": 0.01},
    )


class TestCandidateLatency:
    """All seven shapes of the completion-time formula."""

    def test_single_execution(self, topo, task):
        assert one_candidate(topo, task, "h", ())[0] == 1.0

    def test_dual_same_device_serializes(self, topo, task):
        # 2 * L + compare overhead
        got = one_candidate(topo, task, "h", ("h",))[0]
        assert got == pytest.approx(2 * 1.0 + 0.02e-6, rel=1e-15)

    def test_dual_cross_device_round_trip(self, topo, task):
        # replica on c overlaps the primary: input down, run, result back
        rt = IN_BITS / 12.5e6 + 0.4 + OUT_BITS / 20e6
        got = one_candidate(topo, task, "h", ("c",))[0]
        assert got == pytest.approx(max(1.0, rt) + 0.02e-6, rel=1e-15)
        assert got == pytest.approx(2.40000002, abs=1e-12)

    def test_triple_all_on_primary(self, topo, task):
        got = one_candidate(topo, task, "h", ("h", "h"))[0]
        assert got == pytest.approx(3 * 1.0 + 0.03e-6, rel=1e-15)

    def test_triple_one_local_one_remote(self, topo, task):
        # two serial runs on h race the single remote round trip
        rt = IN_BITS / 12.5e6 + 0.4 + OUT_BITS / 20e6
        got = one_candidate(topo, task, "h", ("h", "c"))[0]
        assert got == pytest.approx(max(2 * 1.0, rt) + 0.03e-6, rel=1e-15)

    def test_triple_two_remote_same_device(self, topo, task):
        # one input transfer, two serial runs there, two results back
        rt2 = IN_BITS / 12.5e6 + 2 * (0.4 + OUT_BITS / 20e6)
        got = one_candidate(topo, task, "h", ("c", "c"))[0]
        assert got == pytest.approx(max(1.0, rt2) + 0.03e-6, rel=1e-15)
        assert got == pytest.approx(3.80000003, abs=1e-12)

    def test_triple_two_distinct_remotes(self, topo, task):
        # h->e is direct both ways; each remote has its own round trip
        rt_e = IN_BITS / 8.5e6 + 2.0 + OUT_BITS / 11e6
        rt_c = IN_BITS / 12.5e6 + 0.4 + OUT_BITS / 20e6
        got = one_candidate(topo, task, "h", ("e", "c"))[0]
        assert got == pytest.approx(max(1.0, rt_e, rt_c) + 0.03e-6, rel=1e-15)

    def test_relayed_round_trip_sums_leg_latencies(self, topo, task):
        # e->c rides through h in both directions
        rt = (IN_BITS / 11e6 + IN_BITS / 12.5e6 + 0.4
              + OUT_BITS / 20e6 + OUT_BITS / 8.5e6)
        got = one_candidate(topo, task, "e", ("c",))[0]
        assert got == pytest.approx(max(2.0, rt) + 1.0e-6, rel=1e-15)


class TestCandidateEnergy:
    def test_single_execution_charges_computation_only(self, topo, task):
        slots = one_candidate(topo, task, "h", ())[1]
        assert slots == ((1, "h", pytest.approx(1.0 * 8.5, rel=1e-15)),)

    def test_dual_cross_device_slot_split(self, topo, task):
        slots = one_candidate(topo, task, "h", ("c",))[1]
        (s1, d1, j1), (s2, d2, j2) = slots
        assert (s1, d1, s2, d2) == (1, "h", 2, "c")
        # primary: run + compare + ship input down + receive result
        compare = 0.02e-6 * 8.02
        assert j1 == pytest.approx(8.5 + compare + IN_BITS * 2.5e-6
                                   + OUT_BITS * 1.25e-6, rel=1e-12)
        # remote: receive input + run + send result
        assert j2 == pytest.approx(IN_BITS * 1.25e-6 + 0.4 * 75.25
                                   + OUT_BITS * 2.5e-6, rel=1e-12)
        assert j2 == pytest.approx(95.725, abs=1e-9)

    def test_triple_two_remotes_single_input_broadcast(self, topo, task):
        # same remote device twice: input transmitted once, results received twice
        slots = one_candidate(topo, task, "h", ("c", "c"))[1]
        vote = 0.03e-6 * 8.03
        assert slots[0][2] == pytest.approx(8.5 + vote + IN_BITS * 2.5e-6
                                            + 2 * OUT_BITS * 1.25e-6, rel=1e-12)
        assert slots[1][2] == slots[2][2]

    def test_triple_distinct_remotes_one_transmission_each(self, topo, task):
        slots = one_candidate(topo, task, "h", ("e", "c"))[1]
        vote = 0.03e-6 * 8.03
        # h->e uplink costs 1.00 uJ/bit, h->c 2.50; results at 0.70 and 1.25
        assert slots[0][2] == pytest.approx(
            8.5 + vote + IN_BITS * (1.0e-6 + 2.5e-6)
            + OUT_BITS * (0.70e-6 + 1.25e-6), rel=1e-12)

    def test_on_primary_reexecution_costs_computation_only(self, topo, task):
        slots = one_candidate(topo, task, "h", ("h", "c"))[1]
        assert slots[1] == (2, "h", pytest.approx(8.5, rel=1e-15))

    def test_relayed_replica_charges_adjacent_legs_only(self, topo, task):
        # e primary, c replica: e pays its uplink to h and downlink from h;
        # c pays its own legs; h's pass-through is not on either endpoint
        slots = one_candidate(topo, task, "e", ("c",))[1]
        compare = 1.0e-6 * 1.20
        assert slots[0][2] == pytest.approx(
            2.0 * 2.5 + compare + IN_BITS * 1.0e-6 + OUT_BITS * 0.70e-6, rel=1e-12)
        assert slots[1][2] == pytest.approx(
            IN_BITS * 1.25e-6 + 0.4 * 75.25 + OUT_BITS * 2.5e-6, rel=1e-12)


class TestCandidateVulnerability:
    def test_product_over_replicas(self, task):
        v = candidate_vulnerability(task, "h", ("c", "c"))
        assert v == pytest.approx(0.02 * 0.01 * 0.01, rel=1e-15)

    def test_reliability_complements(self, topo, task):
        reg = build_reg(build_eg(WorkflowGraph([task], []), topo), default_policy())
        for cand in reg.candidates:
            assert cand.reliability == 1.0 - cand.vulnerability
            assert 0.0 < cand.vulnerability < 1.0


def two_task_graph():
    t1 = TaskSpec(id="t1", memory=1e6, storage=1e7, output_size=8e6,
                  allowed_devices=("e", "h"),
                  exec_time={"e": 1.0, "h": 0.5}, power={"e": 2.0, "h": 8.1},
                  vulnerability={"e": 0.01, "h": 0.01})
    t2 = TaskSpec(id="t2", memory=1e6, storage=1e7, output_size=1e6,
                  allowed_devices=("h", "c"),
                  exec_time={"h": 0.5, "c": 0.2}, power={"h": 8.1, "c": 75.1},
                  vulnerability={"h": 0.04, "c": 0.07})
    return WorkflowGraph([t1, t2], [("t1", "t2")])


class TestExpandedGraph:
    def test_node_per_allowed_device_arc_per_pair(self, topo):
        eg = build_eg(two_task_graph(), topo)
        assert eg.node_count == 4
        assert [n for n in eg.nodes] == [("t1", "e"), ("t1", "h"),
                                         ("t2", "h"), ("t2", "c")]
        assert eg.arc_count == 4

    def test_arc_pricing_matches_channels(self, topo):
        eg = build_eg(two_task_graph(), topo)
        arcs = {(a.src_dev, a.dst_dev): a for a in eg.arcs}
        # 8 Mbit over e->h at 11 Mbit/s
        assert arcs[("e", "h")].latency == pytest.approx(8e6 / 11e6, rel=1e-15)
        # e->c relayed via h: both legs
        assert arcs[("e", "c")].latency == pytest.approx(
            8e6 / 11e6 + 8e6 / 12.5e6, rel=1e-15)
        # co-located tasks ship nothing
        assert arcs[("h", "h")].latency == 0.0

    def test_validation_failure_refused(self, topo):
        t = TaskSpec(id="t1", memory=1e6, storage=1e7, output_size=1e6,
                     allowed_devices=("ghost",), exec_time={"ghost": 1.0},
                     power={"ghost": 1.0}, vulnerability={"ghost": 0.01})
        with pytest.raises(ValueError):
            build_eg(WorkflowGraph([t], []), topo)

    def test_reference_fixture_counts(self, topo):
        eg = build_eg(inspection_workflow(), topo)
        assert eg.node_count == 41
        assert eg.arc_count == 111


class TestCandidateGraph:
    def test_mode_comes_from_vulnerability_thresholds(self, topo):
        # level 3 thresholds: 0.02 / 0.06
        modes = placement_modes(build_reg(build_eg(two_task_graph(), topo), default_policy(3)))
        assert modes[("t1", "e")] is ExecMode.SE     # 0.01 < 0.02
        assert modes[("t2", "h")] is ExecMode.DE     # 0.02 <= 0.04 < 0.06
        assert modes[("t2", "c")] is ExecMode.TE     # 0.07 >= 0.06

    def test_candidate_counts_per_mode(self, topo):
        reg = build_reg(build_eg(two_task_graph(), topo), default_policy(3))
        # t1: SE on e (1) + SE on h (1); t2 over {h, c}: DE on h pairs with
        # each allowed device (2), TE on c takes unordered replica pairs (3)
        assert placement_modes(reg)[("t1", "h")] is ExecMode.SE
        t1 = [reg.candidates[i] for i in reg.candidates_for_task("t1")]
        t2 = [reg.candidates[i] for i in reg.candidates_for_task("t2")]
        assert [c.key for c in t1] == ["t1@e", "t1@h"]
        assert [c.key for c in t2] == ["t2@h+h", "t2@h+c",
                                       "t2@c+h,h", "t2@c+h,c", "t2@c+c,c"]

    def test_replica_devices_sorted_by_topology_order(self, topo):
        reg = build_reg(build_eg(two_task_graph(), topo), default_policy(3))
        for cand in reg.candidates:
            idx = [reg.topology.device_index(r) for r in cand.replicas]
            assert idx == sorted(idx)

    def test_input_size_feeds_candidate_latency(self, topo):
        # t2 receives t1's 8 Mbit; its DE candidate on h with replica on c
        # must price that input over the h->c channel
        reg = build_reg(build_eg(two_task_graph(), topo), default_policy(3))
        cand = next(c for c in reg.candidates if c.key == "t2@h+c")
        rt = 8e6 / 12.5e6 + 0.2 + 1e6 / 20e6
        assert cand.latency == pytest.approx(max(0.5, rt) + 0.02e-6, rel=1e-15)

    def test_summaries_smoke(self, topo):
        eg = build_eg(two_task_graph(), topo)
        reg = build_reg(eg, default_policy(3))
        es = eg_summary(eg)
        rs = reg_summary(reg)
        assert es["nodes"] == 4 and es["arcs"] == 4
        assert rs["candidates"] == 7
        assert rs["candidates_per_mode"] == {"SE": 2, "DE": 2, "TE": 3}


class TestCandidateFacts:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("name", ["fixture", "mixed-40"])
    def test_modes_and_task_lists_agree_with_their_sources(self, topo, name, level):
        graph = (inspection_workflow() if name == "fixture" else
                 sg.generate(sg.GenSpec(task_count=40, structure="mixed", seed=1),
                             tuple(topo.devices)))
        policy = default_policy(level)
        reg = build_reg(build_eg(graph, topo), policy)
        for cand in reg.candidates:
            vulnerability = reg.graph.task(cand.task).vulnerability[cand.primary]
            assert cand.mode is exec_mode(vulnerability, policy)
        options = build_model(reg).catalog.options
        for k, t in enumerate(reg.graph.task_ids):
            assert reg.candidates_for_task(t) == options[k]
            # callers get their own list
            reg.candidates_for_task(t).clear()
            assert reg.candidates_for_task(t) == options[k]


class TestWorstCaseGrowth:
    def test_all_te_three_devices(self, topo):
        # a task free on u=3 devices under forced TE yields 3 * 6 = 18
        # candidates and every workflow arc expands 3 * 3 = 9 ways
        tasks = [
            TaskSpec(id=f"t{i}", memory=1e6, storage=1e7, output_size=1e6,
                     allowed_devices=("e", "h", "c"),
                     exec_time={d: 1.0 for d in "ehc"},
                     power={d: 2.0 for d in "ehc"},
                     vulnerability={d: 0.5 for d in "ehc"})
            for i in range(1, 5)
        ]
        g = WorkflowGraph(tasks, [("t1", "t2"), ("t1", "t3"), ("t2", "t4"),
                                  ("t3", "t4")])
        reg = build_reg(build_eg(g, topo), default_policy(3))
        assert all(m is ExecMode.TE for m in placement_modes(reg).values())
        assert len(reg.candidates) == 18 * 4
        assert len(reg.arcs) == 9 * 4
        assert reg.replica_slot_count == 3 * 18 * 4
