"""Two-step expansion of a task graph for allocation with time redundancy.

Step one replicates every task across the devices it may run on and every
task-graph arc across all compatible device pairs, pricing each arc with
its transfer latency and per-device energy.  Step two expands each
task-on-device node into explicit redundancy candidates: one for single
execution, one per replica device for dual execution, and one per
unordered replica pair for triple execution.  Each candidate carries its
own end-to-end latency, per-replica energy bill and residual
vulnerability, so the allocation problem downstream is linear in
candidate picks.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import CriticalityPolicy, Topology, TaskSpec, WorkflowGraph, validate_workflow
from .params import ExecMode, comp_energy, exec_mode


# the expansion's records are named tuples: a prepared model builds them
# by the hundred, and a tuple is built several times faster than a frozen
# dataclass
class EgArc(NamedTuple):
    """Arc between two task-on-device placements, pricing one transfer."""

    src_task: str
    src_dev: str
    dst_task: str
    dst_dev: str
    latency: float                # seconds, 0 when devices coincide
    per_device_energy: tuple[tuple[str, float], ...]   # nonzero (device, joules)


class Link(NamedTuple):
    """What a transfer from one device to another reads of its legs
    (:attr:`Topology.legs`): their bandwidths, the per-bit energy the
    sender pays on the first leg and the receiver on the last, 0.0 on one
    device, and the relay with its per-bit energy, reception plus
    retransmission, or None and 0.0 without one.  The functions of
    :mod:`ehcalloc.params` compute each quantity from these operands in
    the same order."""

    bandwidths: tuple[float, ...]
    tx: float
    rx: float
    relay: str | None
    relay_energy: float

    def seconds(self, bits: float) -> float:
        """As ``params.comm_latency``: each leg's time, back to back."""
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


class ExpandedGraph:
    """Task graph replicated over the devices each task may run on."""

    def __init__(self, graph: WorkflowGraph, topology: Topology) -> None:
        self.graph = graph
        self.topology = topology
        #: per ordered device pair, what a transfer reads of its legs
        self.links = links(topology)

        # device order inside a task is canonical: topology order
        self.nodes: list[tuple[str, str]] = []
        self.devices_of: dict[str, list[str]] = {}
        for task in graph.tasks:
            devs = sorted(task.allowed_devices, key=topology.device_index)
            self.devices_of[task.id] = devs
            self.nodes.extend((task.id, d) for d in devs)

        # each arc's energy shares as ``params.transfer_energy`` gives them:
        # the sender's, the relay's and the receiver's, the nonzero ones
        self.arcs: list[EgArc] = []
        for src, dst in graph.arcs:
            bits = graph.task(src).output_size
            for k in self.devices_of[src]:
                for l in self.devices_of[dst]:
                    link = self.links[k, l]
                    shares = ((k, bits * link.tx), (link.relay, bits * link.relay_energy),
                              (l, bits * link.rx)) if link.relay else \
                        ((k, bits * link.tx), (l, bits * link.rx))
                    self.arcs.append(EgArc(src, k, dst, l, link.seconds(bits),
                                           tuple(share for share in shares if share[1])))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)


def build_eg(graph: WorkflowGraph, topology: Topology) -> ExpandedGraph:
    """Validate the workflow and expand it over the topology."""
    report = validate_workflow(graph, topology)
    if not report.ok:
        raise ValueError("workflow validation failed:\n  " + "\n  ".join(report.violations))
    return ExpandedGraph(graph, topology)


class CandidateNode(NamedTuple):
    """One concrete way to run a task: primary device plus replica slots.

    ``replicas`` holds the devices of slots 2.. (empty for single
    execution); slot 1 always runs on ``primary``.  ``latency`` is the
    candidate's completion time including redundancy overhead and replica
    round-trips, ``per_replica_energy`` the joules each slot charges to
    the device it runs on, and ``vulnerability`` the probability that
    every replica fails.
    """

    task: str
    primary: str
    replicas: tuple[str, ...]
    latency: float
    per_replica_energy: tuple[tuple[int, str, float], ...]   # (slot, device, joules)
    vulnerability: float

    @property
    def mode(self) -> ExecMode:
        return ExecMode(1 + len(self.replicas))

    @property
    def reliability(self) -> float:
        return 1.0 - self.vulnerability

    @property
    def key(self) -> str:
        if not self.replicas:
            return f"{self.task}@{self.primary}"
        return f"{self.task}@{self.primary}+{','.join(self.replicas)}"


def placement_costs(
    topology: Topology,
    task: TaskSpec,
    primary: str,
    replica_sets: list[tuple[str, ...]],
    in_bits: float,
    pair_links: dict[tuple[str, str], Link] | None = None,
) -> list[tuple[float, tuple[tuple[int, str, float], ...]]]:
    """Completion time (seconds) and per-slot energy (joules) of each
    candidate of ``task`` on ``primary``, one per replica set.

    The primary runs its own execution and every copy placed on it back
    to back.  Each distinct foreign device receives the task input once,
    runs its copies back to back and returns each result; it works in
    parallel with the primary.  A candidate takes the longest of these,
    plus the comparison time (one replica) or the vote time (two).

    Slot 1 (the primary) charges its execution, the comparison or vote
    overhead, one input transmission per distinct foreign replica device
    and the reception of every foreign replica's result.  A foreign slot
    charges receiving the input, executing and sending its result back.

    The terms the replica sets share, per foreign device, are computed
    once; every float still has the operands, and the order of additions,
    that one candidate alone would give it.  ``pair_links`` is the
    topology's :func:`links`, if the caller has it already.
    """
    k = primary
    out_bits = task.output_size
    dev = topology.device(k)
    pair_links = pair_links or links(topology)
    run, joules_k = task.exec_time[k], comp_energy(task, k)
    # per foreign device n: the input's trip there, one run there plus the
    # result's trip back, what k pays to send the input and to receive the
    # result, and what the slot on n pays
    send, back, tx_in, rx_out, remote = {}, {}, {}, {}, {}
    for n in {n for replicas in replica_sets for n in replicas if n != k}:
        there, home = pair_links[k, n], pair_links[n, k]
        send[n] = there.seconds(in_bits)
        back[n] = task.exec_time[n] + home.seconds(out_bits)
        tx_in[n] = in_bits * there.tx
        rx_out[n] = out_bits * home.rx
        remote[n] = in_bits * there.rx + comp_energy(task, n) + out_bits * home.tx
    compare_energy, vote_energy = dev.compare_energy, dev.vote_energy
    out = []
    for replicas in replica_sets:
        span = (1 + replicas.count(k)) * run
        remotes = [r for r in replicas if r != k]
        for n in dict.fromkeys(remotes):
            span = max(span, send[n] + replicas.count(n) * back[n])
        primary_joules = joules_k
        if len(replicas) == 1:
            span = span + dev.compare_time
            primary_joules += compare_energy
        elif replicas:
            span = span + dev.vote_time
            if len(replicas) == 2:
                primary_joules += vote_energy
        # each distinct foreign device once, in topology order
        for r in sorted(set(remotes), key=topology.device_index) if len(remotes) > 1 \
                else remotes:
            primary_joules += tx_in[r]
        for r in remotes:
            primary_joules += rx_out[r]
        slots = [(1, k, primary_joules)]
        for z, n in enumerate(replicas, start=2):
            slots.append((z, n, joules_k if n == k else remote[n]))
        out.append((span, tuple(slots)))
    return out


def candidate_latency(
    topology: Topology,
    task: TaskSpec,
    primary: str,
    replicas: tuple[str, ...],
    in_bits: float,
) -> float:
    """Completion time of one candidate, seconds; see :func:`placement_costs`."""
    return placement_costs(topology, task, primary, [replicas], in_bits)[0][0]


def candidate_replica_energy(
    topology: Topology,
    task: TaskSpec,
    primary: str,
    replicas: tuple[str, ...],
    in_bits: float,
) -> tuple[tuple[int, str, float], ...]:
    """Energy each replica slot of one candidate charges to its device,
    joules; see :func:`placement_costs`."""
    return placement_costs(topology, task, primary, [replicas], in_bits)[0][1]


def candidate_vulnerability(task: TaskSpec, primary: str, replicas: tuple[str, ...]) -> float:
    """Probability that the primary and every replica all fail."""
    v = task.vulnerability[primary]
    for r in replicas:
        v *= task.vulnerability[r]
    return v


class CandidateGraph:
    """Redundancy-expanded graph: candidates per task plus the EG arcs."""

    def __init__(self, eg: ExpandedGraph, policy: CriticalityPolicy) -> None:
        self.eg = eg
        self.policy = policy
        self.topology = eg.topology
        self.graph = eg.graph

        self.candidates: list[CandidateNode] = []
        #: per task, the positions of its candidates in :attr:`candidates`
        self.by_task: dict[str, list[int]] = {t: [] for t in eg.graph.task_ids}

        topo = eg.topology
        # the bits each task receives, summed once per task, not per device
        input_bits = {t: eg.graph.input_size(t) for t in eg.graph.task_ids}
        for task_id, k in eg.nodes:
            task = eg.graph.task(task_id)
            mode = exec_mode(task.vulnerability[k], policy)
            devs = eg.devices_of[task_id]
            if mode is ExecMode.SE:
                replica_sets: list[tuple[str, ...]] = [()]
            elif mode is ExecMode.DE:
                replica_sets = [(l,) for l in devs]
            else:
                replica_sets = [(devs[a], devs[b])
                                for a in range(len(devs))
                                for b in range(a, len(devs))]
            costs = placement_costs(topo, task, k, replica_sets, input_bits[task_id], eg.links)
            at = len(self.candidates)
            self.by_task[task_id].extend(range(at, at + len(replica_sets)))
            self.candidates += [
                CandidateNode(task_id, k, reps, latency, energy,
                              candidate_vulnerability(task, k, reps))
                for reps, (latency, energy) in zip(replica_sets, costs)]

    @property
    def arcs(self) -> list[EgArc]:
        return self.eg.arcs

    @property
    def candidate_count(self) -> int:
        return len(self.candidates)

    @property
    def replica_slot_count(self) -> int:
        return sum(1 + len(c.replicas) for c in self.candidates)

    def candidates_for_task(self, task_id: str) -> list[int]:
        return list(self.by_task[task_id])


def build_reg(eg: ExpandedGraph, policy: CriticalityPolicy) -> CandidateGraph:
    """Expand every task-on-device node into its redundancy candidates."""
    return CandidateGraph(eg, policy)


def eg_summary(eg: ExpandedGraph) -> dict:
    """Size statistics of an expanded graph, for debugging."""
    return {
        "nodes": eg.node_count,
        "arcs": eg.arc_count,
        "devices_per_task": {t: len(d) for t, d in eg.devices_of.items()},
    }


def reg_summary(reg: CandidateGraph) -> dict:
    """Candidate statistics of a redundancy-expanded graph."""
    per_mode = {m.name: 0 for m in ExecMode}
    for c in reg.candidates:
        per_mode[c.mode.name] += 1
    return {
        "candidates": reg.candidate_count,
        "arcs": len(reg.arcs),
        "replica_slots": reg.replica_slot_count,
        "candidates_per_mode": per_mode,
    }
