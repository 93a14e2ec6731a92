"""Config file ingestion and serialization.

JSON keys carry their unit as a suffix (``bandwidth_mbit_s``,
``memory_gib``, ``energy_budget_wh``); ingestion converts everything to
the canonical units used internally (seconds, bits, joules, watts,
bytes).  A device energy budget of ``null``, ``"-"`` or ``"unbounded"``
means mains power, i.e. no energy row for that device.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .bilp import ObjectiveWeights
from .model import UNBOUNDED, Channel, CriticalityPolicy, Device, TaskSpec, Topology, WorkflowGraph
from .solver import SolverOptions

_BYTES = {"bytes": 1.0, "kib": 2.0 ** 10, "mib": 2.0 ** 20, "gib": 2.0 ** 30,
          "kb": 1e3, "mb": 1e6, "gb": 1e9}
_BITS = {"bit": 1.0, "bits": 1.0, "kbit": 1e3, "mbit": 1e6, "gbit": 1e9}
_RATE = {"bit_s": 1.0, "kbit_s": 1e3, "mbit_s": 1e6, "gbit_s": 1e9}
_ENERGY = {"j": 1.0, "kj": 1e3, "wh": 3600.0, "mwh": 3.6}
_PER_BIT = {"j_bit": 1.0, "uj_bit": 1e-6, "nj_bit": 1e-9}
_TIME = {"s": 1.0, "ms": 1e-3, "us": 1e-6}
_POWER = {"w": 1.0, "mw": 1e-3, "kw": 1e3}

def _is_unbounded_token(value) -> bool:
    return value is None or (isinstance(value, str)
                             and value.lower() in {"-", "unbounded", "inf"})


class ConfigError(ValueError):
    """Malformed or inconsistent configuration input."""


def _number(value, what: str, whole: bool = False) -> float:
    """A JSON number as a float, or with ``whole`` a whole one (``3`` or
    ``3.0``) as an int; anything else raises ConfigError naming ``what``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if whole and not float(value).is_integer():
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return int(value) if whole else float(value)


def _take(obj: dict, base: str, units: dict[str, float], where: str,
          unbounded_ok: bool = False) -> float:
    hits = [k for k in obj if k == base or
            (k.startswith(base + "_") and k[len(base) + 1:] in units)]
    if len(hits) != 1:
        raise ConfigError(
            f"{where}: expected exactly one '{base}_<unit>' key "
            f"(units: {', '.join(sorted(units))}), found {hits or 'none'}")
    key = hits[0]
    value = obj[key]
    if unbounded_ok and _is_unbounded_token(value):
        return UNBOUNDED
    factor = 1.0 if key == base else units[key[len(base) + 1:]]
    return _number(value, f"{where}: {key}") * factor


def _map_take(obj: dict, base: str, units: dict[str, float] | None, where: str) -> dict[str, float]:
    if units is None:
        if base not in obj:
            raise ConfigError(f"{where}: missing map {base!r}")
        return {str(k): float(v) for k, v in obj[base].items()}
    hits = [k for k in obj if k.startswith(base + "_") and k[len(base) + 1:] in units]
    if len(hits) != 1:
        raise ConfigError(f"{where}: expected exactly one '{base}_<unit>' map")
    factor = units[hits[0][len(base) + 1:]]
    return {str(k): float(v) * factor for k, v in obj[hits[0]].items()}


def _read_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:              # bad JSON, or bytes that are no UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


@contextmanager
def _reading(path: str | Path):
    """What malformed content of the file at ``path`` raises, as one
    ConfigError that names the file."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (IndexError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed content: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_system(path: str | Path) -> Topology:
    data = _read_json(path)
    with _reading(path):
        devices = []
        for d in data.get("devices", []):
            where = f"device {d.get('id', '?')}"
            devices.append(Device(
                id=str(d["id"]),
                memory_budget=_take(d, "memory", _BYTES, where),
                storage_budget=_take(d, "storage", _BYTES, where),
                energy_budget=_take(d, "energy_budget", _ENERGY, where, unbounded_ok=True),
                compare_time=_take(d, "compare_time", _TIME, where),
                vote_time=_take(d, "vote_time", _TIME, where),
                compare_power=_take(d, "compare_power", _POWER, where),
                vote_power=_take(d, "vote_power", _POWER, where),
                idle_power=_take(d, "idle_power", _POWER, where),
                max_power=_take(d, "max_power", _POWER, where),
            ))
        channels = []
        for ch in data.get("channels", []):
            where = f"channel {ch.get('src', '?')}->{ch.get('dst', '?')}"
            channels.append(Channel(
                src=str(ch["src"]), dst=str(ch["dst"]),
                bandwidth=_take(ch, "bandwidth", _RATE, where),
                tx_energy=_take(ch, "tx_energy", _PER_BIT, where),
                rx_energy=_take(ch, "rx_energy", _PER_BIT, where),
            ))
        relays = {(str(r["src"]), str(r["dst"])): str(r["via"])
                  for r in data.get("relays", [])}
        return Topology(devices, channels, relays)


def load_workflow(path: str | Path) -> WorkflowGraph:
    data = _read_json(path)
    with _reading(path):
        tasks = []
        for t in data.get("tasks", []):
            where = f"task {t.get('id', '?')}"
            try:
                tasks.append(TaskSpec(
                    id=str(t["id"]),
                    memory=_take(t, "memory", _BYTES, where),
                    storage=_take(t, "storage", _BYTES, where),
                    output_size=_take(t, "output", _BITS, where),
                    allowed_devices=tuple(t["allowed_devices"]),
                    exec_time=_map_take(t, "exec_time", _TIME, where),
                    power=_map_take(t, "power", _POWER, where),
                    vulnerability=_map_take(t, "vulnerability", None, where),
                ))
            except KeyError as exc:
                raise ConfigError(f"{where}: missing key {exc}") from exc
        arcs = [(str(a[0]), str(a[1])) for a in data.get("arcs", [])]
        return WorkflowGraph(tasks, arcs)


@dataclass
class Scenario:
    policy: CriticalityPolicy
    weights: ObjectiveWeights
    solver: SolverOptions


def load_scenario(path: str | Path) -> Scenario:
    data = _read_json(path)
    with _reading(path):
        crit = data.get("criticality", {})
        policy = CriticalityPolicy(
            level=_number(crit.get("level", 3), "criticality.level", whole=True),
            max_level=_number(crit.get("max_level", 3), "criticality.max_level", whole=True),
            kappa=_number(crit.get("kappa", 0.06), "criticality.kappa"),
            lambda_coef=_number(crit.get("lambda", 3.0), "criticality.lambda"),
        )
        w = data.get("weights", {})
        w_rel = _number(w.get("w_rel", 0.5), "weights.w_rel")
        weights = ObjectiveWeights(w_rel, _number(w.get("w_lat", 1.0 - w_rel), "weights.w_lat"))
        s = data.get("solver", {})
        mode = s.get("mode", "builtin")
        if mode != "builtin":
            raise ConfigError(f"unknown solver mode {mode!r}")
        # a positive gap would let an unproven result be labelled optimal
        gap = s.get("absolute_gap", 0)
        if gap != 0:
            raise ConfigError(f"absolute_gap must be 0, got {gap!r}")
        limit = s.get("time_limit_s")
        options = SolverOptions(None if limit is None else _number(limit, "solver.time_limit_s"))
        return Scenario(policy, weights, options)


# -- dumps (canonical units, stable ordering) --------------------------------


def dump_system(topology: Topology, path: str | Path) -> None:
    data = {
        "devices": [
            {
                "id": d.id,
                "memory_bytes": d.memory_budget,
                "storage_bytes": d.storage_budget,
                "energy_budget_j": None if d.energy_unbounded else d.energy_budget,
                "compare_time_s": d.compare_time,
                "vote_time_s": d.vote_time,
                "compare_power_w": d.compare_power,
                "vote_power_w": d.vote_power,
                "idle_power_w": d.idle_power,
                "max_power_w": d.max_power,
            }
            for d in topology.devices
        ],
        "channels": [
            {
                "src": ch.src, "dst": ch.dst,
                "bandwidth_bit_s": ch.bandwidth,
                "tx_energy_j_bit": ch.tx_energy,
                "rx_energy_j_bit": ch.rx_energy,
            }
            for ch in topology.channels.values()
        ],
        "relays": [
            {"src": src, "dst": dst, "via": via}
            for (src, dst), via in sorted(topology.relays.items())
        ],
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def dump_workflow(graph: WorkflowGraph, path: str | Path) -> None:
    data = {
        "tasks": [
            {
                "id": t.id,
                "memory_bytes": t.memory,
                "storage_bytes": t.storage,
                "output_bits": t.output_size,
                "allowed_devices": list(t.allowed_devices),
                "exec_time_s": {d: t.exec_time[d] for d in t.allowed_devices},
                "power_w": {d: t.power[d] for d in t.allowed_devices},
                "vulnerability": {d: t.vulnerability[d] for d in t.allowed_devices},
            }
            for t in graph.tasks
        ],
        "arcs": [[src, dst] for src, dst in graph.arcs],
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")

