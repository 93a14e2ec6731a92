"""Routing, transfer pricing, execution modes."""

import pytest

from ehcalloc import build_eg, reference_topology
from ehcalloc.model import CriticalityPolicy, TaskSpec, WorkflowGraph
from ehcalloc.params import ExecMode, comp_energy, exec_mode, links

MBIT = 1e6


@pytest.fixture(scope="module")
def topo():
    return reference_topology()


@pytest.fixture(scope="module")
def link(topo):
    return links(topo)


def arc_energy_total(topo, src: str, dst: str, bits: float, shares) -> float:
    """Joules an active src->dst arc carrying ``bits`` charges the model,
    summed over every device; its per-device shares must be ``shares``."""
    def task(tid):
        return TaskSpec(id=tid, memory=1e6, storage=1e6, output_size=bits,
                        allowed_devices=("e", "h", "c"),
                        exec_time={d: 1.0 for d in "ehc"}, power={d: 1.0 for d in "ehc"},
                        vulnerability={d: 0.01 for d in "ehc"})
    graph = WorkflowGraph([task("t1"), task("t2")], [("t1", "t2")])
    arc = next(a for a in build_eg(graph, topo).arcs if (a.src_dev, a.dst_dev) == (src, dst))
    assert arc.per_device_energy == shares
    return sum(joules for _dev, joules in arc.per_device_energy)


class TestRoute:
    def test_same_device(self, topo):
        assert topo.legs[("h", "h")] == ()

    def test_direct(self, topo):
        assert topo.legs[("e", "h")] == (topo.channels[("e", "h")],)

    def test_relayed(self, topo):
        assert topo.legs[("e", "c")] == (topo.channels[("e", "h")], topo.channels[("h", "c")])
        assert topo.legs[("c", "e")] == (topo.channels[("c", "h")], topo.channels[("h", "e")])


class TestCommLatency:
    def test_same_device_is_free(self, link):
        assert link["c", "c"].seconds(5 * MBIT) == 0.0

    def test_direct_is_bits_over_bandwidth(self, link):
        # h->c runs at 12.5 Mbit/s
        assert link["h", "c"].seconds(25 * MBIT) == 25 * MBIT / 12.5e6

    def test_relayed_sums_both_legs(self, link):
        # e->c via h: 12.5 Mbit over 11 Mbit/s then over 12.5 Mbit/s
        expected = 12.5e6 / 11e6 + 12.5e6 / 12.5e6
        assert link["e", "c"].seconds(12.5 * MBIT) == pytest.approx(
            expected, rel=1e-15)
        assert expected == pytest.approx(2.13636363636, rel=1e-11)


class TestCommEnergy:
    def test_direct_sums_tx_and_rx(self, topo, link):
        # h->c at 2.50 / 1.25 uJ per bit
        shares = (("h", pytest.approx(2.50, rel=1e-12)), ("c", pytest.approx(1.25, rel=1e-12)))
        assert arc_energy_total(topo, "h", "c", MBIT, shares) == pytest.approx(3.75, rel=1e-12)
        assert MBIT * link["h", "c"].tx == pytest.approx(2.50, rel=1e-12)
        assert MBIT * link["h", "c"].rx == pytest.approx(1.25, rel=1e-12)
        assert link["h", "c"].relay is None and link["h", "c"].relay_energy == 0.0

    def test_relayed_charges_all_three_devices(self, topo, link):
        # e->c via h for 1 Mbit: e tx 1.00 J, h rx 0.70 J + tx 2.50 J, c rx 1.25 J
        shares = (("e", pytest.approx(1.00, rel=1e-12)), ("h", pytest.approx(3.20, rel=1e-12)),
                  ("c", pytest.approx(1.25, rel=1e-12)))
        assert arc_energy_total(topo, "e", "c", MBIT, shares) == pytest.approx(5.45, rel=1e-12)
        assert link["e", "c"].relay == "h"
        assert MBIT * link["e", "c"].relay_energy == pytest.approx(3.20, rel=1e-12)

    def test_endpoint_shares_cover_adjacent_leg_only(self, link):
        # sender pays its own uplink; receiver its own downlink
        assert MBIT * link["e", "c"].tx == pytest.approx(1.00, rel=1e-12)
        assert MBIT * link["e", "c"].rx == pytest.approx(1.25, rel=1e-12)

    def test_same_device_costs_nothing(self, topo, link):
        assert arc_energy_total(topo, "e", "e", MBIT, ()) == 0.0
        assert link["e", "e"] == ((), 0.0, 0.0, None, 0.0)


class TestCompEnergy:
    def test_time_times_power(self):
        task = TaskSpec(id="t", memory=1, storage=1, output_size=1,
                        allowed_devices=("e",), exec_time={"e": 3.0},
                        power={"e": 2.2}, vulnerability={"e": 0.01})
        assert comp_energy(task, "e") == pytest.approx(6.6, rel=1e-15)


class TestExecMode:
    @pytest.mark.parametrize("level,vt_de,vt_te", [
        (1, 0.06, 0.18), (2, 0.03, 0.09), (3, 0.02, 0.06),
    ])
    def test_mode_boundaries_left_closed(self, level, vt_de, vt_te):
        policy = CriticalityPolicy(level=level)
        assert exec_mode(vt_de - 1e-12, policy) is ExecMode.SE
        assert exec_mode(vt_de, policy) is ExecMode.DE
        assert exec_mode(vt_te - 1e-12, policy) is ExecMode.DE
        assert exec_mode(vt_te, policy) is ExecMode.TE
        assert exec_mode(0.29, policy) is ExecMode.TE
