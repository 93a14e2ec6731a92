"""Independent checks for the allocation pipeline.

``brute_force`` enumerates every per-task candidate choice and evaluates
budgets and the weighted objective straight from the candidate graph,
bypassing the BILP encoding entirely; agreement between the two routes
is what the test suite leans on.  ``monte_carlo_reliability`` estimates
a plan's success probability by simulating independent replica failures.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bilp import InfeasibleError, NormalizationBounds, ObjectiveWeights
from .solver import _tol
from .transform import CandidateGraph

#: Refuse to enumerate assignment spaces larger than this.
ENUMERATION_GUARD = 10_000_000


@dataclass
class OracleResult:
    status: str                       # "optimal" or "infeasible"
    objective: float | None
    choices: tuple[int, ...] | None   # candidate position per task
    f_rel: float | None = None
    f_lat: float | None = None
    feasible_count: int = 0
    enumerated: int = 0


def space_size(reg: CandidateGraph) -> int:
    """Number of candidate-index vectors: the product of per-task choices."""
    size = 1
    for t in reg.graph.task_ids:
        size *= len(reg.candidates_for_task(t))
    return size


def _arc_tables(reg: CandidateGraph):
    """Per task-graph arc: device pair -> (latency, per-device joules),
    the joules priced from the topology's legs, not read off the arcs."""
    topo = reg.topology
    finite = [d.id for d in topo.devices if not d.energy_unbounded]
    by_pair: dict[tuple[str, str], list] = {}
    for a in reg.arcs:
        by_pair.setdefault((a.src_task, a.dst_task), []).append(a)
    tables = []
    for (src, dst) in reg.graph.arcs:
        bits = reg.graph.task(src).output_size
        table: dict[tuple[str, str], tuple[float, dict[str, float]]] = {}
        for a in by_pair.get((src, dst), ()):
            shares: dict[str, float] = {}
            if a.src_dev != a.dst_dev:
                legs = topo.legs[(a.src_dev, a.dst_dev)]
                for dev in finite:
                    joules = 0.0
                    if a.src_dev == dev:
                        joules += bits * legs[0].tx_energy
                    if a.dst_dev == dev:
                        joules += bits * legs[-1].rx_energy
                    via = topo.relays.get((a.src_dev, a.dst_dev))
                    if via == dev:
                        first = topo.channels[(a.src_dev, via)]
                        second = topo.channels[(via, a.dst_dev)]
                        joules += bits * (first.rx_energy + second.tx_energy)
                    if joules:
                        shares[dev] = joules
            table[(a.src_dev, a.dst_dev)] = (a.latency, shares)
        tables.append(((src, dst), table))
    return tables


def _feasible(reg: CandidateGraph, cands, arc_tables) -> bool:
    topo = reg.topology
    mem = {d.id: 0.0 for d in topo.devices}
    sto = {d.id: 0.0 for d in topo.devices}
    eng = {d.id: 0.0 for d in topo.devices if not d.energy_unbounded}
    for cand in cands:
        task = reg.graph.task(cand.task)
        for _slot, dev, joules in cand.per_replica_energy:
            mem[dev] += task.memory
            sto[dev] += task.storage
            if dev in eng:
                eng[dev] += joules
    primary_of = {c.task: c.primary for c in cands}
    for (src, dst), table in arc_tables:
        _lat, shares = table[(primary_of[src], primary_of[dst])]
        for dev, joules in shares.items():
            eng[dev] += joules
    for d in topo.devices:
        tol = 1e-9
        if mem[d.id] > d.memory_budget * (1 + tol):
            return False
        if sto[d.id] > d.storage_budget * (1 + tol):
            return False
        if d.id in eng and eng[d.id] > d.energy_budget * (1 + tol):
            return False
    return True


def raw_objectives(reg: CandidateGraph, cands, arc_tables=None) -> tuple[float, float]:
    """(log of the product of candidate reliabilities, total latency).

    The reliability route multiplies probabilities first and takes one
    log at the end, deliberately not the sum-of-logs the BILP uses.
    """
    if arc_tables is None:
        arc_tables = _arc_tables(reg)
    r_total = 1.0
    f_lat = 0.0
    for cand in cands:
        r_total *= cand.reliability
        f_lat += cand.latency
    primary_of = {c.task: c.primary for c in cands}
    for (src, dst), table in arc_tables:
        lat, _shares = table[(primary_of[src], primary_of[dst])]
        f_lat += lat
    return math.log(r_total), f_lat


def feasible_points(reg: CandidateGraph, guard: int = ENUMERATION_GUARD):
    """Yield ``(vector, f_rel, f_lat)`` for every feasible candidate-index
    vector, in lexicographic order."""
    size = space_size(reg)
    if size > guard:
        raise ValueError(f"assignment space {size} exceeds guard {guard}")
    cand_lists = [
        [reg.candidates[i] for i in reg.candidates_for_task(t)]
        for t in reg.graph.task_ids
    ]
    arc_tables = _arc_tables(reg)
    for vec in itertools.product(*(range(len(cl)) for cl in cand_lists)):
        cands = [cl[i] for cl, i in zip(cand_lists, vec)]
        if _feasible(reg, cands, arc_tables):
            yield (vec, *raw_objectives(reg, cands, arc_tables))


def brute_force(
    reg: CandidateGraph,
    weights: ObjectiveWeights,
    bounds: NormalizationBounds,
    guard: int = ENUMERATION_GUARD,
    points=None,
) -> OracleResult:
    """Exhaustive search for the best feasible assignment.

    Ties follow the solver's rule: every point that scores within
    ``1e-9 * max(1, |best|)`` of the best score ties with it, and of those
    the lexicographically smallest candidate-index vector wins.  The
    tolerance absorbs the different order in which this route sums.
    ``points``, a list of what :func:`feasible_points` yields, spares a
    second enumeration; it may come in any order.
    """
    if points is None:
        points = feasible_points(reg, guard)
    best_g = -math.inf
    # the points within the tolerance of the best score so far
    near: list[tuple[float, tuple, float, float]] = []
    feasible_count = 0
    for vec, f_rel, f_lat in points:
        feasible_count += 1
        g = (weights.w_rel * bounds.normalize_rel(f_rel)
             - weights.w_lat * bounds.normalize_lat(f_lat))
        if g > best_g:
            best_g = g
            near = [p for p in near if p[0] >= best_g - _tol(best_g)]
        if g >= best_g - _tol(best_g):
            near.append((g, tuple(vec), f_rel, f_lat))

    enumerated = space_size(reg)
    if not near:
        return OracleResult("infeasible", None, None,
                            feasible_count=0, enumerated=enumerated)
    g, vec, f_rel, f_lat = min(near, key=lambda p: p[1])
    return OracleResult("optimal", g, vec, f_rel, f_lat, feasible_count, enumerated)


def oracle_bounds(reg: CandidateGraph, guard: int = ENUMERATION_GUARD,
                  points=None) -> NormalizationBounds:
    """Normalization bounds by enumeration, for checking the solver's four
    auxiliary solves; ``points`` as in :func:`brute_force`."""
    if points is None:
        points = feasible_points(reg, guard)
    rel_lo = lat_lo = math.inf
    rel_hi = lat_hi = -math.inf
    for _vec, f_rel, f_lat in points:
        rel_lo, rel_hi = min(rel_lo, f_rel), max(rel_hi, f_rel)
        lat_lo, lat_hi = min(lat_lo, f_lat), max(lat_hi, f_lat)
    if math.isinf(rel_lo):
        raise InfeasibleError("no feasible assignment exists")
    return NormalizationBounds(rel_min=rel_lo, rel_max=rel_hi,
                               lat_min=lat_lo, lat_max=lat_hi)


def monte_carlo_reliability(
    reg: CandidateGraph,
    candidate_indexes: Sequence[int],
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Simulate a plan's end-to-end success probability.

    Every replica slot fails independently with its device-specific task
    vulnerability; a task succeeds when at least one of its replicas
    does, and a run succeeds when every task does.  Returns the success
    frequency and its binomial standard error.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    vuln_per_task: list[np.ndarray] = []
    for idx in candidate_indexes:
        cand = reg.candidates[idx]
        task = reg.graph.task(cand.task)
        vs = [task.vulnerability[cand.primary]]
        vs += [task.vulnerability[r] for r in cand.replicas]
        vuln_per_task.append(np.array(vs))

    rng = np.random.default_rng(seed)
    ok = np.ones(samples, dtype=bool)
    for vs in vuln_per_task:
        draws = rng.random((samples, len(vs)))
        ok &= (draws >= vs).any(axis=1)
    p_hat = float(ok.mean())
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return p_hat, stderr
