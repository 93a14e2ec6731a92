"""Derived per-placement quantities: communication cost and modes.

A transfer from one device to another runs over the legs that
:attr:`Topology.legs` resolves once per device pair: none on one device,
one direct channel, or two channels through a relay.  The time adds up
over every leg.  The sender pays to transmit on the first leg, the
receiver to receive on the last, and a relay pays both to take the data
in and to pass it on.
"""

from __future__ import annotations

import enum

from .model import CriticalityPolicy, TaskSpec, Topology


class ExecMode(enum.Enum):
    """Time-redundancy mode: single, dual or triple execution."""

    SE = 1
    DE = 2
    TE = 3


def comm_latency(topology: Topology, src: str, dst: str, bits: float) -> float:
    """Transfer time in seconds for ``bits`` from src to dst: each leg's
    bits / bandwidth, back to back (0 on one device)."""
    seconds = 0.0
    for leg in topology.legs[(src, dst)]:
        seconds += bits / leg.bandwidth
    return seconds


def tx_energy(topology: Topology, src: str, dst: str, bits: float) -> float:
    """Energy the *sender* pays to push ``bits`` toward dst (its own leg only)."""
    legs = topology.legs[(src, dst)]
    return bits * legs[0].tx_energy if legs else 0.0


def rx_energy(topology: Topology, src: str, dst: str, bits: float) -> float:
    """Energy the *receiver* pays to take in ``bits`` sent from src."""
    legs = topology.legs[(src, dst)]
    return bits * legs[-1].rx_energy if legs else 0.0


def transfer_energy(topology: Topology, src: str, dst: str,
                    bits: float) -> tuple[tuple[str, float], ...]:
    """Every nonzero ``(device, joules)`` share of one transfer: the
    sender's, the relay's (reception plus retransmission) and the
    receiver's."""
    legs = topology.legs[(src, dst)]
    shares = [(src, tx_energy(topology, src, dst, bits))]
    if len(legs) == 2:
        first, second = legs
        shares.append((first.dst, bits * (first.rx_energy + second.tx_energy)))
    shares.append((dst, rx_energy(topology, src, dst, bits)))
    return tuple((dev, joules) for dev, joules in shares if joules)


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
