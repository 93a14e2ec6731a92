"""Derived per-placement quantities: routing, communication cost, modes.

Communication between two devices is either direct or relayed through a
single intermediate device.  A relayed transfer pays both legs in time,
while each endpoint device is charged only for the leg adjacent to it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .model import CriticalityPolicy, TaskSpec, Topology


class RouteKind(enum.Enum):
    SAME_DEVICE = "same_device"
    DIRECT = "direct"
    RELAYED = "relayed"


class ExecMode(enum.Enum):
    """Time-redundancy mode: single, dual or triple execution."""

    SE = 1
    DE = 2
    TE = 3

    @property
    def replica_count(self) -> int:
        return self.value


@dataclass(frozen=True)
class Route:
    kind: RouteKind
    src: str
    dst: str
    via: str | None = None


def route(topology: Topology, src: str, dst: str) -> Route:
    """Resolve how data moves from ``src`` to ``dst``.

    Raises KeyError if the pair is not routable; a validly constructed
    Topology guarantees that never happens.
    """
    if src == dst:
        return Route(RouteKind.SAME_DEVICE, src, dst)
    if (src, dst) in topology.channels:
        return Route(RouteKind.DIRECT, src, dst)
    via = topology.relays.get((src, dst))
    if via is None:
        raise KeyError(f"no route from {src} to {dst}")
    return Route(RouteKind.RELAYED, src, dst, via)


def comm_latency(topology: Topology, src: str, dst: str, bits: float) -> float:
    """Transfer time in seconds for ``bits`` from src to dst.

    Same device: 0.  Direct: bits / bandwidth.  Relayed: both legs paid
    back to back.
    """
    r = route(topology, src, dst)
    if r.kind is RouteKind.SAME_DEVICE:
        return 0.0
    if r.kind is RouteKind.DIRECT:
        return bits / topology.channels[(src, dst)].bandwidth
    first = topology.channels[(src, r.via)]
    second = topology.channels[(r.via, dst)]
    return bits / first.bandwidth + bits / second.bandwidth


def tx_energy(topology: Topology, src: str, dst: str, bits: float) -> float:
    """Energy the *sender* pays to push ``bits`` toward dst (its own leg only)."""
    r = route(topology, src, dst)
    if r.kind is RouteKind.SAME_DEVICE:
        return 0.0
    hop = dst if r.kind is RouteKind.DIRECT else r.via
    return bits * topology.channels[(src, hop)].tx_energy


def rx_energy(topology: Topology, src: str, dst: str, bits: float) -> float:
    """Energy the *receiver* pays to take in ``bits`` sent from src."""
    r = route(topology, src, dst)
    if r.kind is RouteKind.SAME_DEVICE:
        return 0.0
    hop = src if r.kind is RouteKind.DIRECT else r.via
    return bits * topology.channels[(hop, dst)].rx_energy


def comp_energy(task: TaskSpec, device_id: str) -> float:
    """Computation energy of one execution: time x power, joules."""
    return task.exec_time[device_id] * task.power[device_id]


def exec_mode(vulnerability: float, policy: CriticalityPolicy) -> ExecMode:
    """Map a task-on-device vulnerability to its redundancy mode.

    Boundaries are left-closed: V equal to a threshold lands in the
    higher-redundancy mode.
    """
    vt_de, vt_te = policy.thresholds()
    if vulnerability < vt_de:
        return ExecMode.SE
    if vulnerability < vt_te:
        return ExecMode.DE
    return ExecMode.TE


def reliability(vulnerability: float) -> float:
    """Success probability of a single execution."""
    if not 0.0 < vulnerability < 1.0:
        raise ValueError(f"vulnerability {vulnerability} outside (0, 1)")
    return 1.0 - vulnerability
