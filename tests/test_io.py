"""Config ingestion: unit suffixes, unbounded tokens, round trips, errors."""

import json
import math

import pytest

import ehcalloc as e
from ehcalloc.io import (
    ConfigError,
    Scenario,
    dump_system,
    dump_workflow,
    load_scenario,
    load_system,
    load_workflow,
)
from ehcalloc.model import UNBOUNDED
from ehcalloc.solver import SolverOptions


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def device_payload(**overrides):
    d = {
        "id": "e",
        "memory_gib": 1.0,
        "storage_gib": 8.0,
        "energy_budget_wh": 2.0,
        "compare_time_us": 1.0,
        "vote_time_us": 1.5,
        "compare_power_w": 1.2,
        "vote_power_w": 1.21,
        "idle_power_w": 0.8,
        "max_power_w": 5.0,
    }
    d.update(overrides)
    return d


class TestUnits:
    def test_suffixes_convert_to_canonical_units(self, tmp_path):
        payload = {
            "devices": [device_payload()],
            "channels": [],
            "relays": [],
        }
        topo = load_system(write(tmp_path, "sys.json", payload))
        d = topo.device("e")
        assert d.memory_budget == 2.0 ** 30
        assert d.storage_budget == 8 * 2.0 ** 30
        assert d.energy_budget == 7200.0          # 2 Wh
        assert d.compare_time == pytest.approx(1e-6)
        assert d.vote_time == pytest.approx(1.5e-6)

    def test_channel_rate_and_per_bit_energy(self, tmp_path):
        payload = {
            "devices": [device_payload(), device_payload(id="h")],
            "channels": [{
                "src": "e", "dst": "h",
                "bandwidth_mbit_s": 11.0,
                "tx_energy_uj_bit": 1.0,
                "rx_energy_nj_bit": 700.0,
            }, {
                "src": "h", "dst": "e",
                "bandwidth_mbit_s": 8.5,
                "tx_energy_uj_bit": 1.0,
                "rx_energy_uj_bit": 0.7,
            }],
        }
        topo = load_system(write(tmp_path, "sys.json", payload))
        ch = topo.channels[("e", "h")]
        assert ch.bandwidth == 11e6
        assert ch.tx_energy == pytest.approx(1e-6)
        assert ch.rx_energy == pytest.approx(7e-7)

    def test_workflow_maps_convert_each_entry(self, tmp_path):
        payload = {"tasks": [{
            "id": "t1",
            "memory_mb": 12.0,
            "storage_mb": 100.0,
            "output_mbit": 20.0,
            "allowed_devices": ["e"],
            "exec_time_ms": {"e": 1500.0},
            "power_mw": {"e": 2500.0},
            "vulnerability": {"e": 0.05},
        }], "arcs": []}
        graph = load_workflow(write(tmp_path, "wf.json", payload))
        t = graph.task("t1")
        assert t.memory == 12e6
        assert t.output_size == 20e6
        assert t.exec_time["e"] == pytest.approx(1.5)
        assert t.power["e"] == pytest.approx(2.5)

    @pytest.mark.parametrize("token", [None, "-", "unbounded", "inf", "UNBOUNDED"])
    def test_energy_budget_unbounded_tokens(self, tmp_path, token):
        payload = {"devices": [device_payload(energy_budget_wh=token)]}
        topo = load_system(write(tmp_path, "sys.json", payload))
        assert topo.device("e").energy_budget == UNBOUNDED
        assert math.isinf(topo.device("e").energy_budget)


class TestRoundTrips:
    def test_system_survives_a_dump_load_cycle(self, topology, tmp_path):
        p = tmp_path / "sys.json"
        dump_system(topology, p)
        clone = load_system(p)
        assert clone.devices == topology.devices
        assert clone.channels == topology.channels
        assert clone.relays == topology.relays

    def test_workflow_survives_a_dump_load_cycle(self, workflow, tmp_path):
        p = tmp_path / "wf.json"
        dump_workflow(workflow, p)
        clone = load_workflow(p)
        assert [t.__dict__ for t in clone.tasks] \
            == [t.__dict__ for t in workflow.tasks]
        assert list(clone.arcs) == list(workflow.arcs)

    def test_scenario_survives_a_dump_load_cycle(self, tmp_path):
        scenario = Scenario(
            policy=e.default_policy(2),
            weights=e.ObjectiveWeights(0.3, 0.7),
            solver=SolverOptions(time_limit=12.5),
        )
        p = write(tmp_path, "scenario.json", {
            "criticality": {"level": 2, "max_level": 3, "kappa": 0.06, "lambda": 3.0},
            "weights": {"w_rel": 0.3, "w_lat": 0.7},
            "solver": {"time_limit_s": 12.5},
        })
        clone = load_scenario(p)
        assert clone == scenario

    def test_dump_is_deterministic(self, topology, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_system(topology, a)
        dump_system(topology, b)
        assert a.read_bytes() == b.read_bytes()


class TestScenarioDefaults:
    def test_empty_document_gets_the_reference_scenario(self, tmp_path):
        s = load_scenario(write(tmp_path, "s.json", {}))
        assert s.policy.level == 3 and s.policy.max_level == 3
        assert s.policy.kappa == 0.06 and s.policy.lambda_coef == 3.0
        assert (s.weights.w_rel, s.weights.w_lat) == (0.5, 0.5)
        assert s.solver.time_limit is None

    def test_w_lat_defaults_to_the_complement(self, tmp_path):
        s = load_scenario(write(tmp_path, "s.json", {"weights": {"w_rel": 0.2}}))
        assert s.weights.w_lat == pytest.approx(0.8)


class TestErrors:
    def test_invalid_json_is_a_config_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        for loader in (load_system, load_workflow, load_scenario):
            with pytest.raises(ConfigError, match="not valid JSON"):
                loader(p)

    def test_conflicting_unit_keys_are_rejected(self, tmp_path):
        payload = {"devices": [device_payload(memory_mb=1.0)]}
        with pytest.raises(ConfigError, match="exactly one"):
            load_system(write(tmp_path, "sys.json", payload))

    def test_missing_quantity_is_rejected(self, tmp_path):
        d = device_payload()
        del d["memory_gib"]
        with pytest.raises(ConfigError, match="memory"):
            load_system(write(tmp_path, "sys.json", {"devices": [d]}))

    def test_boolean_is_not_a_number(self, tmp_path):
        payload = {"devices": [device_payload(memory_gib=True)]}
        with pytest.raises(ConfigError, match="must be a number"):
            load_system(write(tmp_path, "sys.json", payload))

    def test_unbounded_token_only_valid_for_energy(self, tmp_path):
        payload = {"devices": [device_payload(memory_gib=None)]}
        with pytest.raises(ConfigError):
            load_system(write(tmp_path, "sys.json", payload))

    def test_unknown_solver_mode(self, tmp_path):
        payload = {"solver": {"mode": "quantum"}}
        with pytest.raises(ConfigError, match="unknown solver mode"):
            load_scenario(write(tmp_path, "s.json", payload))

    def test_inconsistent_weights(self, tmp_path):
        payload = {"weights": {"w_rel": 0.2, "w_lat": 0.2}}
        with pytest.raises(ConfigError):
            load_scenario(write(tmp_path, "s.json", payload))

    def test_topology_errors_carry_the_file_name(self, tmp_path):
        payload = {"devices": [device_payload(), device_payload()]}
        with pytest.raises(ConfigError, match="sys.json"):
            load_system(write(tmp_path, "sys.json", payload))

    def test_missing_vulnerability_map(self, tmp_path):
        payload = {"tasks": [{
            "id": "t1", "memory_mb": 1.0, "storage_mb": 1.0, "output_mbit": 1.0,
            "allowed_devices": ["e"],
            "exec_time_s": {"e": 1.0}, "power_w": {"e": 1.0},
        }], "arcs": []}
        with pytest.raises(ConfigError, match="vulnerability"):
            load_workflow(write(tmp_path, "wf.json", payload))
