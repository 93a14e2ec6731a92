"""Core domain types: devices, channels, topology, workflow, policy."""

import dataclasses
import math

import pytest

from ehcalloc.model import (
    UNBOUNDED,
    Channel,
    CriticalityPolicy,
    Device,
    TaskSpec,
    Topology,
    WorkflowGraph,
    validate_workflow,
)


def make_device(**over) -> Device:
    kw = dict(id="d", memory_budget=1e9, storage_budget=1e10, energy_budget=1e5,
              compare_time=1e-6, vote_time=2e-6, compare_power=1.0, vote_power=1.1,
              idle_power=1.0, max_power=5.0)
    kw.update(over)
    return Device(**kw)


class TestDevice:
    def test_overhead_energy_is_time_times_power(self):
        d = make_device(compare_time=2e-6, compare_power=3.0,
                        vote_time=4e-6, vote_power=5.0)
        assert d.compare_energy == 2e-6 * 3.0
        assert d.vote_energy == 4e-6 * 5.0

    def test_unbounded_energy(self):
        assert make_device(energy_budget=UNBOUNDED).energy_unbounded
        assert not make_device(energy_budget=100.0).energy_unbounded
        assert math.isinf(UNBOUNDED)

    @pytest.mark.parametrize("field,value", [
        ("memory_budget", 0.0),
        ("storage_budget", -1.0),
        ("energy_budget", 0.0),
        ("compare_time", -1e-9),
        ("max_power", 0.0),
        ("energy_budget", math.nan),
        ("compare_time", math.nan),
        ("vote_power", math.nan),
    ])
    def test_rejects_non_positive(self, field, value):
        with pytest.raises(ValueError):
            make_device(**{field: value})

    def test_rejects_idle_above_max(self):
        with pytest.raises(ValueError):
            make_device(idle_power=6.0, max_power=5.0)


class TestChannel:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Channel("a", "a", 1e6, 1e-6, 1e-6)

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            Channel("a", "b", 0.0, 1e-6, 1e-6)

    @pytest.mark.parametrize("args", [(math.nan, 1e-6, 1e-6), (1e6, math.nan, 1e-6),
                                      (1e6, 1e-6, math.nan)])
    def test_rejects_nan(self, args):
        with pytest.raises(ValueError, match="NaN"):
            Channel("a", "b", *args)


def two_device_topology() -> Topology:
    a = make_device(id="a")
    b = make_device(id="b")
    return Topology([a, b], [Channel("a", "b", 1e6, 1e-6, 5e-7),
                             Channel("b", "a", 2e6, 1e-6, 5e-7)])


class TestTopology:
    def test_duplicate_device_ids_rejected(self):
        with pytest.raises(ValueError):
            Topology([make_device(id="a"), make_device(id="a")], [])

    def test_unknown_channel_endpoint_rejected(self):
        with pytest.raises(ValueError):
            Topology([make_device(id="a"), make_device(id="b")],
                     [Channel("a", "x", 1e6, 1e-6, 1e-6),
                      Channel("b", "a", 1e6, 1e-6, 1e-6)])

    def test_unreachable_pair_rejected(self):
        # no b->a channel and no relay covering it
        with pytest.raises(ValueError):
            Topology([make_device(id="a"), make_device(id="b")],
                     [Channel("a", "b", 1e6, 1e-6, 1e-6)])

    def test_relay_must_have_both_legs(self):
        devs = [make_device(id=i) for i in "abc"]
        chans = [Channel("a", "b", 1e6, 1e-6, 1e-6), Channel("b", "a", 1e6, 1e-6, 1e-6),
                 Channel("b", "c", 1e6, 1e-6, 1e-6), Channel("c", "b", 1e6, 1e-6, 1e-6)]
        topo = Topology(devs, chans, relays={("a", "c"): "b", ("c", "a"): "b"})
        assert topo.relays[("a", "c")] == "b"
        with pytest.raises(ValueError):
            # d->a leg missing: cannot relay a->c via d
            Topology(devs, chans, relays={("a", "c"): "c", ("c", "a"): "b"})

    def test_device_index_follows_declaration_order(self):
        topo = two_device_topology()
        assert topo.device_index("a") == 0
        assert topo.device_index("b") == 1
        assert "a" in topo and "missing" not in topo


class TestCriticalityPolicy:
    def test_threshold_formula(self):
        # VT_DE = kappa / level, VT_TE = lambda * VT_DE
        p = CriticalityPolicy(level=2)
        assert p.thresholds() == (0.03, 0.09)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            CriticalityPolicy(level=0)
        with pytest.raises(ValueError):
            CriticalityPolicy(level=4, max_level=3)

    def test_te_threshold_must_stay_below_one(self):
        with pytest.raises(ValueError):
            CriticalityPolicy(level=1, kappa=0.4, lambda_coef=3.0)


def chain_tasks(n: int, devices=("a", "b")) -> list[TaskSpec]:
    return [
        TaskSpec(id=f"t{i}", memory=1e6, storage=1e7, output_size=1e6,
                 allowed_devices=tuple(devices),
                 exec_time={d: 1.0 for d in devices},
                 power={d: 2.0 for d in devices},
                 vulnerability={d: 0.01 for d in devices})
        for i in range(1, n + 1)
    ]


class TestWorkflowGraph:
    def test_children_parents_and_input_size(self):
        tasks = chain_tasks(3)
        g = WorkflowGraph(tasks, [("t1", "t3"), ("t2", "t3")])
        assert g.children["t1"] == ["t3"]
        assert sorted(g.parents["t3"]) == ["t1", "t2"]
        # a join receives every parent's full output
        assert g.input_size("t3") == 2e6
        assert g.input_size("t1") == 0.0

    def test_rejects_unknown_arc_endpoint(self):
        with pytest.raises(ValueError):
            WorkflowGraph(chain_tasks(2), [("t1", "nope")])

    def test_rejects_self_arc_and_duplicates(self):
        with pytest.raises(ValueError):
            WorkflowGraph(chain_tasks(2), [("t1", "t1")])
        with pytest.raises(ValueError):
            WorkflowGraph(chain_tasks(2), [("t1", "t2"), ("t1", "t2")])

    def test_topological_order_none_on_cycle(self):
        g = WorkflowGraph(chain_tasks(3), [("t1", "t2"), ("t2", "t3"), ("t3", "t1")])
        assert g.topological_order() is None

    def test_topological_order_respects_arcs(self):
        g = WorkflowGraph(chain_tasks(3), [("t2", "t1"), ("t1", "t3")])
        order = g.topological_order()
        assert order.index("t2") < order.index("t1") < order.index("t3")


class TestValidateWorkflow:
    def test_clean_workflow_passes(self):
        topo = two_device_topology()
        g = WorkflowGraph(chain_tasks(2), [("t1", "t2")])
        report = validate_workflow(g, topo)
        assert report.ok and not report.violations

    def test_reports_all_violations_not_just_first(self):
        topo = two_device_topology()
        bad = TaskSpec(id="t1", memory=1e6, storage=1e7, output_size=1e6,
                       allowed_devices=("a", "ghost"),
                       exec_time={"a": 1.0},        # missing entry for ghost
                       power={"a": 2.0},
                       vulnerability={"a": 1.5})    # out of (0, 1)
        ok = chain_tasks(1)[0]
        g = WorkflowGraph([bad, TaskSpec(**{**ok.__dict__, "id": "t2"})],
                          [("t1", "t2")])
        report = validate_workflow(g, topo)
        assert not report.ok
        text = "\n".join(report.violations)
        assert "ghost" in text
        assert "vulnerability" in text
        assert len(report.violations) >= 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["memory", "storage", "output_size",
                                       "exec_time", "power", "vulnerability"])
    def test_non_finite_values_reported(self, field, value):
        task = chain_tasks(1)[0]
        old = getattr(task, field)
        new = {**old, "a": value} if isinstance(old, dict) else value
        g = WorkflowGraph([dataclasses.replace(task, **{field: new})], [])
        report = validate_workflow(g, two_device_topology())
        assert len(report.violations) == 1
        assert field.split("_")[0] in report.violations[0]

    def test_cycle_reported(self):
        topo = two_device_topology()
        g = WorkflowGraph(chain_tasks(2), [("t1", "t2"), ("t2", "t1")])
        report = validate_workflow(g, topo)
        assert any("cycle" in v for v in report.violations)
