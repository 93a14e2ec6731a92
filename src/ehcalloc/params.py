"""Derived per-placement quantities: transfer pricing, energy and modes.

A transfer from one device to another runs over the legs that
:attr:`Topology.legs` resolves once per device pair: none on one device,
one direct channel, or two channels through a relay.  The time adds up
over every leg.  The sender pays to transmit on the first leg, the
receiver to receive on the last, and a relay pays both to take the data
in and to pass it on.  :class:`Link` holds that rule, once per pair.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .model import CriticalityPolicy, TaskSpec, Topology


class ExecMode(enum.Enum):
    """Time-redundancy mode: single, dual or triple execution."""

    SE = 1
    DE = 2
    TE = 3


class Link(NamedTuple):
    """What a transfer from one device to another reads of its legs
    (:attr:`Topology.legs`): their bandwidths, the per-bit energy the
    sender pays on the first leg and the receiver on the last, 0.0 on one
    device, and the relay with its per-bit energy, reception plus
    retransmission, or None and 0.0 without one."""

    bandwidths: tuple[float, ...]
    tx: float
    rx: float
    relay: str | None
    relay_energy: float

    def seconds(self, bits: float) -> float:
        """Transfer time of ``bits``: each leg's bits / bandwidth, back to
        back (0 on one device)."""
        seconds = 0.0
        for bandwidth in self.bandwidths:
            seconds += bits / bandwidth
        return seconds


def links(topology: Topology) -> dict[tuple[str, str], Link]:
    """Every ordered device pair's :class:`Link`, read off its legs once."""
    out = {}
    for pair, legs in topology.legs.items():
        relay = (legs[0].dst, legs[0].rx_energy + legs[1].tx_energy) if len(legs) == 2 \
            else (None, 0.0)
        out[pair] = Link(tuple(leg.bandwidth for leg in legs),
                         legs[0].tx_energy if legs else 0.0,
                         legs[-1].rx_energy if legs else 0.0, *relay)
    return out


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
