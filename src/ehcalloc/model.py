"""Core domain model: devices, channels, topology, workflows, criticality.

All quantities are stored in canonical SI-ish units: seconds, bits,
joules, watts, bytes.  Ingestion from config files (see :mod:`ehcalloc.io`)
converts from the usual engineering units (Mbit/s, uJ/bit, GiB, Wh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

#: Sentinel for devices whose energy budget is not constrained (mains power).
UNBOUNDED = math.inf


@dataclass(frozen=True)
class Device:
    """A compute device (edge node, hub, cloud server).

    Budgets are per planning horizon: memory and storage in bytes, energy
    in joules (``UNBOUNDED`` for mains-powered devices).  ``compare_*``
    parameters cover the dual-execution comparison step, ``vote_*`` the
    triple-execution majority vote.
    """

    id: str
    memory_budget: float          # bytes
    storage_budget: float         # bytes
    energy_budget: float          # joules, UNBOUNDED allowed
    compare_time: float           # seconds (beta, dual execution)
    vote_time: float              # seconds (beta, triple execution)
    compare_power: float          # watts (gamma, dual execution)
    vote_power: float             # watts (gamma, triple execution)
    idle_power: float             # watts
    max_power: float              # watts

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("device id must be non-empty")
        for f in fields(self)[1:]:          # every field after id is a number
            if math.isnan(getattr(self, f.name)):
                raise ValueError(f"device {self.id}: {f.name} is NaN")
        if self.memory_budget <= 0 or not math.isfinite(self.memory_budget):
            raise ValueError(f"device {self.id}: memory budget must be finite and positive")
        if self.storage_budget <= 0 or not math.isfinite(self.storage_budget):
            raise ValueError(f"device {self.id}: storage budget must be finite and positive")
        if self.energy_budget <= 0:
            raise ValueError(f"device {self.id}: energy budget must be positive or UNBOUNDED")
        if self.compare_time < 0 or self.vote_time < 0:
            raise ValueError(f"device {self.id}: redundancy overhead times must be >= 0")
        if self.compare_power < 0 or self.vote_power < 0:
            raise ValueError(f"device {self.id}: redundancy overhead powers must be >= 0")
        if not 0 < self.idle_power <= self.max_power:
            raise ValueError(f"device {self.id}: need 0 < idle power <= max power")

    @property
    def compare_energy(self) -> float:
        """Energy overhead of one dual-execution comparison, joules."""
        return self.compare_time * self.compare_power

    @property
    def vote_energy(self) -> float:
        """Energy overhead of one triple-execution vote, joules."""
        return self.vote_time * self.vote_power

    @property
    def energy_unbounded(self) -> bool:
        return math.isinf(self.energy_budget)


@dataclass(frozen=True)
class Channel:
    """Directed communication channel between two devices."""

    src: str
    dst: str
    bandwidth: float              # bits/second (sigma)
    tx_energy: float              # joules/bit at the sender (tau)
    rx_energy: float              # joules/bit at the receiver (rho)

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"channel {self.src}->{self.dst}: endpoints must differ")
        for f in fields(self)[2:]:          # every field after the endpoints
            if math.isnan(getattr(self, f.name)):
                raise ValueError(f"channel {self.src}->{self.dst}: {f.name} is NaN")
        if self.bandwidth <= 0 or not math.isfinite(self.bandwidth):
            raise ValueError(f"channel {self.src}->{self.dst}: bandwidth must be finite and positive")
        if self.tx_energy < 0 or self.rx_energy < 0:
            raise ValueError(f"channel {self.src}->{self.dst}: per-bit energies must be >= 0")


class Topology:
    """Device set plus directed channels and single-hop relay table.

    Every ordered device pair (k, l), k != l, must either have a direct
    channel or a relay entry (k, l) -> o with direct channels k->o and
    o->l; otherwise construction fails.  Construction resolves each pair
    into :attr:`legs` once, so any replica or arc placement is routable.
    """

    def __init__(
        self,
        devices: list[Device],
        channels: list[Channel],
        relays: dict[tuple[str, str], str] | None = None,
    ) -> None:
        ids = [d.id for d in devices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate device ids")
        self.devices: list[Device] = list(devices)
        self.device_ids: list[str] = ids
        self._index: dict[str, int] = {d: i for i, d in enumerate(ids)}
        self._by_id: dict[str, Device] = {d.id: d for d in devices}

        self.channels: dict[tuple[str, str], Channel] = {}
        for ch in channels:
            if ch.src not in self._by_id or ch.dst not in self._by_id:
                raise ValueError(f"channel {ch.src}->{ch.dst}: unknown device")
            key = (ch.src, ch.dst)
            if key in self.channels:
                raise ValueError(f"duplicate channel {ch.src}->{ch.dst}")
            self.channels[key] = ch

        self.relays: dict[tuple[str, str], str] = dict(relays or {})
        for (k, l), o in self.relays.items():
            if k == l:
                raise ValueError(f"relay entry ({k},{l}) for a same-device pair")
            if o in (k, l):
                raise ValueError(f"relay ({k},{l}) via {o}: relay must be a third device")
            if (k, l) in self.channels:
                raise ValueError(f"relay ({k},{l}) shadows a direct channel")
            if (k, o) not in self.channels or (o, l) not in self.channels:
                raise ValueError(f"relay ({k},{l}) via {o}: both legs must be direct channels")

        #: per ordered device pair, the channels a transfer runs over:
        #: none on one device, the direct channel, or both relay legs
        self.legs: dict[tuple[str, str], tuple[Channel, ...]] = {}
        for k in ids:
            for l in ids:
                o = self.relays.get((k, l))
                if k == l:
                    self.legs[(k, l)] = ()
                elif (k, l) in self.channels:
                    self.legs[(k, l)] = (self.channels[(k, l)],)
                elif o is not None:
                    self.legs[(k, l)] = (self.channels[(k, o)], self.channels[(o, l)])
                else:
                    raise ValueError(f"device pair ({k},{l}) is neither direct nor relayed")

    def device(self, device_id: str) -> Device:
        return self._by_id[device_id]

    def device_index(self, device_id: str) -> int:
        return self._index[device_id]

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._by_id


@dataclass
class TaskSpec:
    """One workflow task with per-device execution profile.

    ``exec_time``, ``power`` and ``vulnerability`` are keyed by device id
    and must cover exactly ``allowed_devices``; that totality (and the
    0 < V < 1 range) is checked by :func:`validate_workflow` rather than
    at construction so that invalid inputs can be reported, not thrown.
    """

    id: str
    memory: float                 # bytes held while (re)executing
    storage: float                # bytes of code + data at rest
    output_size: float            # bits produced for each successor
    allowed_devices: tuple[str, ...]
    exec_time: dict[str, float] = field(default_factory=dict)     # seconds
    power: dict[str, float] = field(default_factory=dict)         # watts
    vulnerability: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("task id must be non-empty")
        self.allowed_devices = tuple(self.allowed_devices)
        if not self.allowed_devices:
            raise ValueError(f"task {self.id}: allowed_devices must be non-empty")
        if len(set(self.allowed_devices)) != len(self.allowed_devices):
            raise ValueError(f"task {self.id}: duplicate allowed devices")

    def pinned(self, device_id: str) -> "TaskSpec":
        """This task with ``device_id`` as its only device, keeping that
        device's profile values."""
        if device_id not in self.allowed_devices:
            raise ValueError(f"task {self.id} cannot run on {device_id}")
        return replace(self, allowed_devices=(device_id,),
                       exec_time={device_id: self.exec_time[device_id]},
                       power={device_id: self.power[device_id]},
                       vulnerability={device_id: self.vulnerability[device_id]})


class WorkflowGraph:
    """Directed task graph.

    Construction enforces only local shape (known endpoints, no self or
    duplicate arcs); acyclicity and per-task profile totality are the
    job of :func:`validate_workflow`.
    """

    def __init__(self, tasks: list[TaskSpec], arcs: list[tuple[str, str]]) -> None:
        ids = [t.id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")
        self.tasks: list[TaskSpec] = list(tasks)
        self.task_ids: list[str] = ids
        self._by_id: dict[str, TaskSpec] = {t.id: t for t in tasks}

        seen: set[tuple[str, str]] = set()
        for src, dst in arcs:
            if src not in self._by_id or dst not in self._by_id:
                raise ValueError(f"arc ({src},{dst}): unknown task")
            if src == dst:
                raise ValueError(f"arc ({src},{dst}): self-arcs not allowed")
            if (src, dst) in seen:
                raise ValueError(f"duplicate arc ({src},{dst})")
            seen.add((src, dst))
        self.arcs: list[tuple[str, str]] = [(s, d) for s, d in arcs]

        self.children: dict[str, list[str]] = {t: [] for t in ids}
        self.parents: dict[str, list[str]] = {t: [] for t in ids}
        for src, dst in self.arcs:
            self.children[src].append(dst)
            self.parents[dst].append(src)

    def task(self, task_id: str) -> TaskSpec:
        return self._by_id[task_id]

    def input_size(self, task_id: str) -> float:
        """Total bits a task receives: sum of its parents' output sizes."""
        return sum(self._by_id[p].output_size for p in self.parents[task_id])

    def topological_order(self) -> list[str] | None:
        """Kahn order, or None if the graph has a cycle."""
        indeg = {t: len(ps) for t, ps in self.parents.items()}
        queue = [t for t in self.task_ids if indeg[t] == 0]
        order: list[str] = []
        while queue:
            t = queue.pop(0)
            order.append(t)
            for c in self.children[t]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    queue.append(c)
        return order if len(order) == len(self.task_ids) else None


@dataclass(frozen=True)
class CriticalityPolicy:
    """Application criticality level and mode-threshold coefficients.

    Vulnerability thresholds scale inversely with the level: the more
    critical the application, the lower the vulnerability at which a
    task is promoted to dual/triple execution.
    """

    level: int = 3
    max_level: int = 3
    kappa: float = 0.06
    lambda_coef: float = 3.0

    def __post_init__(self) -> None:
        if not 1 <= self.level <= self.max_level:
            raise ValueError(f"criticality level {self.level} outside 1..{self.max_level}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.lambda_coef <= 1:
            raise ValueError("lambda must exceed 1 so the two thresholds are ordered")
        vt_de, vt_te = self.thresholds()
        if vt_te >= 1:
            raise ValueError("triple-execution threshold must stay below 1")

    def thresholds(self) -> tuple[float, float]:
        """(dual threshold, triple threshold) for this level."""
        vt_de = self.kappa / self.level
        return vt_de, self.lambda_coef * vt_de


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


def validate_workflow(graph: WorkflowGraph, topology: Topology) -> ValidationReport:
    """Check a workflow against a topology; returns all violations found.

    Catches: cycles, tasks allowed on unknown devices, execution profiles
    missing or surplus relative to allowed devices, vulnerabilities outside
    (0, 1), and sizes/times/powers that are non-positive, infinite or NaN.
    """
    violations: list[str] = []

    if graph.topological_order() is None:
        violations.append("cycle: task graph is not acyclic")

    for task in graph.tasks:
        for dev in task.allowed_devices:
            if dev not in topology:
                violations.append(f"task {task.id}: unknown device {dev!r} in allowed_devices")
        allowed = set(task.allowed_devices)
        for name, mapping in (
            ("exec_time", task.exec_time),
            ("power", task.power),
            ("vulnerability", task.vulnerability),
        ):
            keys = set(mapping)
            for dev in sorted(allowed - keys):
                violations.append(f"task {task.id}: {name} missing entry for device {dev}")
            for dev in sorted(keys - allowed):
                violations.append(f"task {task.id}: {name} has entry for disallowed device {dev}")
        # written so that NaN fails every range check
        for dev, v in sorted(task.vulnerability.items()):
            if not 0.0 < v < 1.0:
                violations.append(f"task {task.id}: vulnerability on {dev} is {v}, must lie in (0, 1)")
        for name, mapping in (("exec_time", task.exec_time), ("power", task.power)):
            for dev, value in sorted(mapping.items()):
                if not 0.0 < value < math.inf:
                    violations.append(f"task {task.id}: {name} on {dev} must be finite and positive")
        if not 0.0 < task.memory < math.inf:
            violations.append(f"task {task.id}: memory must be finite and positive")
        if not 0.0 < task.storage < math.inf:
            violations.append(f"task {task.id}: storage must be finite and positive")
        if not 0.0 <= task.output_size < math.inf:
            violations.append(f"task {task.id}: output size must be finite and >= 0")

    return ValidationReport(ok=not violations, violations=violations)
