"""Seed-deterministic synthetic workflow generation.

Structures come in three classes: SERIAL (a chain with skip arcs while
degree bounds allow), PARALLEL (a bounded fan-out tree with leaf joins)
and MIXED (alternating serial runs and fork-join fans).  Parameters are
drawn from value pools for the edge device and scaled to the hub and
cloud through a table of performance ratios; scaled powers are clamped
into the device's idle/max window.  Vulnerabilities are drawn so that
each device hits its target share of single, dual and triple execution
under the default (highest) criticality level, and the same values are
kept when the scenario is later evaluated at lower levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CriticalityPolicy, Device, TaskSpec, WorkflowGraph

#: (theta_hub, theta_cloud) speedup pairs observed across profiled task types.
DEFAULT_PERF_RATIOS: tuple[tuple[float, float], ...] = (
    (9.08, 9.23),
    (26.78, 1.43),
    (74.53, 2.84),
    (135.86, 1.32),
    (7.60, 1.92),
)

#: (single, dual, triple) execution shares in percent, per device tier.
DEFAULT_MODE_TARGETS: tuple[tuple[float, float, float], ...] = (
    (5.0, 20.0, 75.0),     # edge
    (20.0, 35.0, 45.0),    # hub
    (35.0, 50.0, 15.0),    # cloud
)

DEFAULT_VALUE_POOLS: dict[str, tuple[float, float]] = {
    "exec_time_s": (2.0, 20.0),      # on the edge device
    "power_w": (2.0, 4.4),           # on the edge device
    "memory_bytes": (5e6, 4e7),
    "storage_bytes": (5e7, 4e8),
    "output_bits": (1e6, 2.5e7),
}

#: Vulnerability draw window: strictly above 0, and capped well below 1.
V_FLOOR = 0.001
V_CEIL = 0.30


@dataclass
class GenSpec:
    task_count: int
    structure: str = "mixed"                  # serial | parallel | mixed
    max_in_degree: int = 3
    max_out_degree: int = 3
    seed: int = 0
    mode_targets: tuple[tuple[float, float, float], ...] = DEFAULT_MODE_TARGETS
    fixed_edge_pct: float = 0.0
    fixed_hub_pct: float = 0.0

    def __post_init__(self) -> None:
        if self.task_count < 2:
            raise ValueError("need at least two tasks")
        if self.structure not in ("serial", "parallel", "mixed"):
            raise ValueError(f"unknown structure {self.structure!r}")
        if self.max_in_degree < 1 or self.max_out_degree < 1:
            raise ValueError("degree bounds must be at least 1")
        for name in ("edge", "hub"):
            pct = getattr(self, f"fixed_{name}_pct")
            # written so that NaN fails the range check
            if not 0.0 <= pct <= 100.0:
                raise ValueError(f"fixed {name} percentage must lie in [0, 100], got {pct!r}")


def generate_structure(spec: GenSpec) -> list[tuple[int, int]]:
    """Arc list over node indexes 0..task_count-1 (index order is topological)."""
    rng = np.random.default_rng(spec.seed)
    n = spec.task_count
    if spec.structure == "serial":
        return _serial(n, spec.max_in_degree, spec.max_out_degree)
    if spec.structure == "parallel":
        return _parallel(n, spec.max_in_degree, spec.max_out_degree, rng)
    return _mixed(n, spec.max_in_degree, spec.max_out_degree, rng)


def _serial(n: int, max_in: int, max_out: int) -> list[tuple[int, int]]:
    arcs = [(i, i + 1) for i in range(n - 1)]
    if max_in >= 2 and max_out >= 2:
        arcs += [(i, i + 2) for i in range(n - 2)]
    return sorted(arcs)


def _parallel(n: int, max_in: int, max_out: int, rng) -> list[tuple[int, int]]:
    arcs: list[tuple[int, int]] = []
    out_deg = [0] * n
    in_deg = [0] * n
    frontier = [0]
    next_id = 1
    while next_id < n:
        new_frontier: list[int] = []
        for node in frontier:
            if next_id >= n:
                break
            width = int(rng.integers(1, max_out + 1))
            for _ in range(min(width, n - next_id)):
                arcs.append((node, next_id))
                out_deg[node] += 1
                in_deg[next_id] += 1
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier or frontier
    # join leaves forward where degree budgets allow; leftovers stay sinks
    arc_set = set(arcs)
    leaves = [u for u in range(n - 1) if out_deg[u] == 0]
    for u in leaves:
        for w in range(n - 1, u, -1):
            if in_deg[w] < max_in and (u, w) not in arc_set:
                arcs.append((u, w))
                arc_set.add((u, w))
                out_deg[u] += 1
                in_deg[w] += 1
                break
    return sorted(arcs)


def _mixed(n: int, max_in: int, max_out: int, rng) -> list[tuple[int, int]]:
    arcs: list[tuple[int, int]] = []
    current = 0
    next_id = 1
    while next_id < n:
        run = int(rng.integers(2, 5))
        for _ in range(run):
            if next_id >= n:
                return sorted(arcs)
            arcs.append((current, next_id))
            current = next_id
            next_id += 1
        fan_cap = min(max_out, max_in, n - next_id - 1)
        if fan_cap >= 2:
            width = int(rng.integers(2, fan_cap + 1))
            branch = [next_id + i for i in range(width)]
            join = next_id + width
            for b in branch:
                arcs.append((current, b))
                arcs.append((b, join))
            current = join
            next_id = join + 1
    return sorted(arcs)


def _quota_counts(n: int, shares: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder split of n items over three percentage shares."""
    raw = [s * n / 100.0 for s in shares]
    counts = [math.floor(r) for r in raw]
    remainders = sorted(range(3), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    return counts[0], counts[1], counts[2]


def _draw_in(rng, lo: float, hi: float) -> float:
    v = lo + (hi - lo) * float(rng.random())
    return min(v, math.nextafter(hi, lo))


def synthesize_parameters(
    arcs: list[tuple[int, int]],
    spec: GenSpec,
    devices: tuple[Device, Device, Device],
    policy: CriticalityPolicy | None = None,
) -> WorkflowGraph:
    """Attach execution profiles to a structure skeleton.

    ``devices`` is the (edge, hub, cloud) triple.  Edge-side time and
    power are drawn from the pools; hub and cloud values follow one of
    the performance-ratio rows per task.  Vulnerability draws land each
    device's tasks in its target single/dual/triple shares under
    ``policy`` (default: the highest criticality level).
    """
    if len(devices) != 3:
        raise ValueError("parameter synthesis expects an (edge, hub, cloud) triple")
    policy = policy or CriticalityPolicy()
    vt_de, vt_te = policy.thresholds()
    rng = np.random.default_rng(spec.seed + 1)
    n = spec.task_count
    pools = DEFAULT_VALUE_POOLS
    edge, hub, cloud = devices

    def clamp_power(value: float, dev: Device) -> float:
        omega = _draw_in(rng, 0.001, 0.005)
        if value <= dev.idle_power:
            return dev.idle_power * (1.0 + omega)
        if value > dev.max_power:
            return dev.max_power * (1.0 - omega)
        return value

    tasks: list[TaskSpec] = []
    for i in range(n):
        l_e = _draw_in(rng, *pools["exec_time_s"])
        p_e = _draw_in(rng, *pools["power_w"])
        memory = _draw_in(rng, *pools["memory_bytes"])
        storage = _draw_in(rng, *pools["storage_bytes"])
        output = _draw_in(rng, *pools["output_bits"])
        theta_h, theta_c = DEFAULT_PERF_RATIOS[int(rng.integers(len(DEFAULT_PERF_RATIOS)))]
        l_h = l_e / theta_h
        l_c = l_h / theta_c
        p_h = clamp_power(p_e * theta_h, hub)
        p_c = clamp_power(p_h * theta_c, cloud)
        tasks.append(TaskSpec(
            id=f"t{i + 1}",
            memory=memory,
            storage=storage,
            output_size=output,
            allowed_devices=(edge.id, hub.id, cloud.id),
            exec_time={edge.id: l_e, hub.id: l_h, cloud.id: l_c},
            power={edge.id: p_e, hub.id: p_h, cloud.id: p_c},
            vulnerability={},
        ))

    # vulnerabilities: per device, partition tasks into mode quotas and
    # draw uniformly inside that mode's threshold interval
    windows = ((V_FLOOR, vt_de), (vt_de, vt_te), (vt_te, V_CEIL))
    for dev, shares in zip(devices, spec.mode_targets):
        counts = _quota_counts(n, shares)
        order = rng.permutation(n)
        pos = 0
        for count, (lo, hi) in zip(counts, windows):
            for idx in order[pos:pos + count]:
                tasks[int(idx)].vulnerability[dev.id] = _draw_in(rng, lo, hi)
            pos += count

    named_arcs = [(f"t{a + 1}", f"t{b + 1}") for a, b in arcs]
    return WorkflowGraph(tasks, named_arcs)


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def assign_fixed_allocations(
    graph: WorkflowGraph,
    pct_edge: float,
    pct_hub: float,
    seed: int,
    edge_id: str,
    hub_id: str,
) -> WorkflowGraph:
    """Pin a share of tasks to the edge and hub devices.

    Percentages convert to task counts by rounding half away from zero.
    Pinned tasks keep only the pinned device in their profile maps.
    """
    n = len(graph.tasks)
    k_edge = _round_half_away(pct_edge * n / 100.0)
    k_hub = _round_half_away(pct_hub * n / 100.0)
    if k_edge + k_hub > n:
        raise ValueError("fixed allocation percentages exceed the task count")
    rng = np.random.default_rng(seed + 2)
    order = [int(i) for i in rng.permutation(n)]
    pinned: dict[int, str] = {}
    for i in order[:k_edge]:
        pinned[i] = edge_id
    for i in order[k_edge:k_edge + k_hub]:
        pinned[i] = hub_id

    tasks = [t.pinned(pinned[i]) if i in pinned else t for i, t in enumerate(graph.tasks)]
    return WorkflowGraph(tasks, list(graph.arcs))


def generate(spec: GenSpec, devices: tuple[Device, Device, Device],
             policy: CriticalityPolicy | None = None) -> WorkflowGraph:
    """Structure, parameters and fixed allocations in one call."""
    arcs = generate_structure(spec)
    graph = synthesize_parameters(arcs, spec, devices, policy)
    if spec.fixed_edge_pct or spec.fixed_hub_pct:
        graph = assign_fixed_allocations(
            graph, spec.fixed_edge_pct, spec.fixed_hub_pct, spec.seed,
            devices[0].id, devices[1].id)
    return graph
