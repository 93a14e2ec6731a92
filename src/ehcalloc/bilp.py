"""Binary integer linear program assembly over a candidate graph.

Two variable families, in a fixed global order so exports and solves
are repeatable:

* one binary per redundancy candidate (pick exactly one per task),
* one binary per expanded arc (active when both endpoint picks are).

Arcs are tied to candidates by marginal rows: for a workflow arc u->v,
the arcs leaving u on device k sum to u's candidates with primary k,
and the arcs entering v on device l sum to v's candidates with primary
l (the local polytope of max-sum labelling, whose node marginals are
these candidate sums).  Budget rows charge each candidate column the
memory, storage and energy of all its replica slots on that device,
summed slot by slot.

The weighted objective trades normalized log-reliability against
normalized end-to-end latency; normalization bounds come from four
auxiliary single-objective solves over the same constraint set.

:class:`VariableCatalog` also indexes the model as its one real
decision, a candidate per task: per task its candidates, per workflow
arc its task pair and, per arc side, its arc variables by device pair.
The rows, the exporter and the pick/vector conversions read that index;
what only the search needs (the budget rows per variable, the arcs per
task) it builds itself, in ``solver._Layout``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .transform import CandidateGraph


class InfeasibleError(Exception):
    """Raised when a model (or an auxiliary normalization solve) has no feasible point."""


class TimeLimitError(Exception):
    """Raised when a time budget expires before a required exact solve finishes.

    ``kind`` names the solve that ran out, when one did; ``incumbent`` is
    the best value it found and ``bound`` the bound it proved on the
    optimum, both in that solve's raw objective units, and None where
    nothing was found.
    """

    def __init__(self, message: str, *, kind: str | None = None,
                 incumbent: float | None = None, bound: float | None = None) -> None:
        super().__init__(message)
        self.kind = kind
        self.incumbent = incumbent
        self.bound = bound


# the fields a catalog reads of the expansion's records, as read_mps rebuilds them
class CandidateVar(NamedTuple):
    task: str
    primary: str
    replicas: tuple[str, ...]
    key: str


class ArcVar(NamedTuple):
    src_task: str
    src_dev: str
    dst_task: str
    dst_dev: str


class VariableCatalog:
    """Index of every binary variable and what it stands for.

    A variable is its position: the candidates, task by task in
    ``task_order``, then the arcs, each workflow arc's device pairs
    together by source device, as :attr:`ends` lists them.  A catalog in
    any other order raises ValueError.
    """

    def __init__(self, task_order: list[str], candidates: list, arcs: list) -> None:
        self.task_order = list(task_order)
        self.candidates = list(candidates)
        self.arcs = list(arcs)
        self.n_vars = len(candidates) + len(arcs)

        # the model's one real decision is a candidate per task; two
        # adjacent picks set the arc between them
        task_pos = {t: k for k, t in enumerate(self.task_order)}
        #: per task, the positions of its candidates in :attr:`candidates`
        self.options: list[list[int]] = [[] for _ in self.task_order]
        for i, c in enumerate(self.candidates):
            self.options[task_pos[c.task]].append(i)
        #: per workflow arc, its (source, destination) task positions
        self.pairs: list[tuple[int, int]] = []
        #: per workflow arc and side (0 = source, 1 = destination): this
        #: side's device -> {the other side's device: arc variable}
        self.ends: list[tuple[dict[str, dict[str, int]], dict[str, dict[str, int]]]] = []
        arc_of: dict[tuple[str, str], int] = {}
        for v, a in enumerate(self.arcs, start=len(self.candidates)):
            p = arc_of.get((a.src_task, a.dst_task))
            if p is None:
                p = arc_of[(a.src_task, a.dst_task)] = len(self.pairs)
                self.pairs.append((task_pos[a.src_task], task_pos[a.dst_task]))
                self.ends.append(({}, {}))
            src, dst = self.ends[p]
            src.setdefault(a.src_dev, {})[a.dst_dev] = v
            dst.setdefault(a.dst_dev, {})[a.src_dev] = v
        # a pair listed twice drops a variable from ends, so it fails here too
        order = [i for options in self.options for i in options]
        order += [v for src, _ in self.ends for row in src.values() for v in row.values()]
        if order != list(range(self.n_vars)):
            v = next(v for v, at in enumerate(order + [None]) if v != at)
            raise ValueError(f"variable {v} is out of order: candidates come task by task "
                             f"in task_order, then each workflow arc's device pairs together "
                             f"by source device, each pair once")

    @cached_property
    def names(self) -> list[str]:
        """Per variable, its short opaque name, ``C<var>`` for a candidate
        and ``A<var>`` for an arc; built when first read, as a solve reads none."""
        n_c = len(self.candidates)
        return [f"C{v}" for v in range(n_c)] + [f"A{v}" for v in range(n_c, self.n_vars)]

    def vector(self, picks) -> list[int]:
        """The 0/1 vector of one candidate position per task, in any order."""
        x = [0] * self.n_vars
        primary: dict[str, str] = {}
        for i in picks:
            c = self.candidates[i]
            if c.task in primary:
                raise ValueError(f"two candidates picked for task {c.task}")
            primary[c.task] = c.primary
            x[i] = 1
        missing = [t for t in self.task_order if t not in primary]
        if missing:
            raise ValueError(f"no candidate picked for tasks {missing}")
        for (i, j), (src, _) in zip(self.pairs, self.ends):
            x[src[primary[self.task_order[i]]][primary[self.task_order[j]]]] = 1
        return x

    def picks(self, x) -> list[int]:
        """The candidate position each task picks in a 0/1 vector, in task order."""
        out: list[int] = []
        for t, options in zip(self.task_order, self.options):
            hit = [i for i in options if x[i] == 1]
            if len(hit) != 1:
                raise ValueError(f"assignment picks {len(hit)} candidates for task {t}")
            out.append(hit[0])
        return out

    @property
    def category_counts(self) -> dict[str, int]:
        return {
            "candidate": len(self.candidates),
            "arc": len(self.arcs),
            # replica slots fold into candidates; perfbench/tracing.py reads this key
            "replica": 0,
            "total": self.n_vars,
        }

    def to_json_dict(self) -> dict:
        """The catalog as JSON data; each entry's ``var`` is its position."""
        return {
            "task_order": self.task_order,
            "candidates": [
                {"var": v, "task": c.task, "primary": c.primary,
                 "replicas": list(c.replicas), "key": c.key}
                for v, c in enumerate(self.candidates)
            ],
            "arcs": [
                {"var": v, "src_task": a.src_task, "src_dev": a.src_dev,
                 "dst_task": a.dst_task, "dst_dev": a.dst_dev}
                for v, a in enumerate(self.arcs, start=len(self.candidates))
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VariableCatalog":
        """Inverse of :meth:`to_json_dict`, which it holds to: a missing key
        raises KeyError; a task named twice in ``task_order``, a ``var`` off
        the entry's position, a task not in ``task_order`` or an order the
        catalog refuses raises ValueError."""
        candidates = [CandidateVar(d["task"], d["primary"], tuple(d["replicas"]), d["key"])
                      for d in data["candidates"]]
        arcs = [ArcVar(d["src_task"], d["src_dev"], d["dst_task"], d["dst_dev"])
                for d in data["arcs"]]
        order = list(data["task_order"])
        tasks = set(order)
        if len(tasks) != len(order):
            raise ValueError("task_order names a task twice")
        for pos, d in enumerate(chain(data["candidates"], data["arcs"])):
            if type(d["var"]) is not int or d["var"] != pos:
                raise ValueError(f"variable {pos} has var {d['var']!r}")
            for t in (d["task"],) if pos < len(candidates) else (d["src_task"], d["dst_task"]):
                if t not in tasks:
                    raise ValueError(f"variable {pos} names task {t!r}, "
                                     f"which is not in task_order")
        return cls(order, candidates, arcs)


@dataclass
class LinearConstraint:
    coeffs: dict[int, float]
    sense: str                    # "<=" or "="
    rhs: float
    tag: str

    def lhs(self, x) -> float:
        # added left to right from 0, the order np.bincount adds a row in
        # (Python 3.12's sum would compensate a float sum)
        total = 0
        for v, c in self.coeffs.items():
            total += c * x[v]
        return total


@dataclass
class BilpModel:
    catalog: VariableCatalog
    constraints: list[LinearConstraint]
    objective: dict[int, float]
    objective_offset: float = 0.0
    metadata: dict = field(default_factory=dict)
    # what is derived from the catalog and rows alone, built on first use;
    # with_objective copies keep these rows, so they share the dict
    _shared: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return self.catalog.n_vars

    def shared(self, key: str, build, keep: bool = True):
        """``build()``, computed once per catalog and rows: the first call
        on this model or any of its ``with_objective`` copies stores it.
        With ``keep=False`` a stored value is still returned, but a value
        built here is not stored.

        The entries, each built on first use:

        * ``"raw objectives"``: the reliability and latency terms as
          vectors, for :func:`single_objective` and
          :func:`weighted_objective`;
        * ``"row index"``: the rows as flat arrays, stored by the search
          layout, which reads them; ``solver.verify`` reads them too, and
          builds them without storing them for a model never solved;
        * ``"search layout"``: what the search reads apart from the
          objective, built on a model's first solve.
        """
        if key in self._shared:
            return self._shared[key]
        value = build()
        if keep:
            self._shared[key] = value
        return value

    def objective_value(self, x) -> float:
        return sum(c * x[v] for v, c in self.objective.items()) + self.objective_offset

    def with_objective(self, objective: dict[int, float], offset: float = 0.0,
                       **metadata) -> "BilpModel":
        return BilpModel(self.catalog, self.constraints, dict(objective), offset,
                         {**self.metadata, **metadata}, self._shared)


def build_catalog(reg: CandidateGraph) -> VariableCatalog:
    """Lay out all variables in the canonical order: candidates, then
    arcs, each the expansion's own record, in the expansion's order."""
    return VariableCatalog(reg.graph.task_ids, reg.candidates, reg.arcs)


def assemble_constraints(reg: CandidateGraph, catalog: VariableCatalog) -> list[LinearConstraint]:
    """All structural and budget rows, in a fixed order."""
    rows: list[LinearConstraint] = []
    topo = reg.topology

    # exactly one candidate per task
    for task_id, options in zip(catalog.task_order, catalog.options):
        coeffs = dict.fromkeys(options, 1.0)
        rows.append(LinearConstraint(coeffs, "=", 1.0, f"choose_one[{task_id}]"))

    # marginal rows of each workflow arc u->v: the arcs leaving u@k sum to
    # u's candidates with primary k, the arcs entering v@l to v's on l
    on_device: dict[tuple[str, str], list[int]] = {}
    for v, c in enumerate(catalog.candidates):
        on_device.setdefault((c.task, c.primary), []).append(v)
    devices_of = reg.eg.devices_of
    for (i, j), ends in zip(catalog.pairs, catalog.ends):
        src, dst = catalog.task_order[i], catalog.task_order[j]
        for side, task in enumerate((src, dst)):
            for k in devices_of[task]:
                coeffs = {var: 1.0 for var in ends[side].get(k, {}).values()}
                for var in on_device.get((task, k), ()):
                    coeffs[var] = -1.0
                tag = f"arc_src[{src}@{k}->{dst}]" if side == 0 else f"arc_dst[{src}->{dst}@{k}]"
                rows.append(LinearConstraint(coeffs, "=", 0.0, tag))

    # per-device budgets: a candidate charges each device the memory,
    # storage and energy of all its replica slots there, summed slot by
    # slot from 0.0, and an active arc charges each device its share of
    # the transfer; only a finite energy budget gets a row
    mem: dict[str, dict[int, float]] = {d.id: {} for d in topo.devices}
    sto: dict[str, dict[int, float]] = {d.id: {} for d in topo.devices}
    en: dict[str, dict[int, float]] = {d.id: {} for d in topo.devices}
    for v, cand in enumerate(reg.candidates):
        task = reg.graph.task(cand.task)
        for _slot, dev, joules in cand.per_replica_energy:
            mem[dev][v] = mem[dev].get(v, 0.0) + task.memory
            sto[dev][v] = sto[dev].get(v, 0.0) + task.storage
            en[dev][v] = en[dev].get(v, 0.0) + joules
    for v, arc in enumerate(reg.arcs, start=reg.candidate_count):
        for dev, joules in arc.per_device_energy:
            en[dev][v] = joules
    for device in topo.devices:
        rows.append(LinearConstraint(mem[device.id], "<=", device.memory_budget,
                                     f"memory[{device.id}]"))
        rows.append(LinearConstraint(sto[device.id], "<=", device.storage_budget,
                                     f"storage[{device.id}]"))
        if not device.energy_unbounded:
            rows.append(LinearConstraint(en[device.id], "<=", device.energy_budget,
                                         f"energy[{device.id}]"))
    return rows


def build_model(reg: CandidateGraph) -> BilpModel:
    """Catalog plus constraints; attach an objective before solving."""
    catalog = build_catalog(reg)
    constraints = assemble_constraints(reg, catalog)
    return BilpModel(catalog, constraints, objective={}, metadata={"objective_kind": "none"})


def objective_reliability(reg: CandidateGraph, catalog: VariableCatalog) -> dict[int, float]:
    """Sum of log candidate reliabilities (log turns the product linear)."""
    return {v: math.log(cand.reliability) for v, cand in enumerate(reg.candidates)}


def objective_latency(reg: CandidateGraph, catalog: VariableCatalog) -> dict[int, float]:
    """Sum of candidate completion times plus active transfer times."""
    coeffs = {v: cand.latency for v, cand in enumerate(reg.candidates)}
    for v, arc in enumerate(reg.arcs, start=reg.candidate_count):
        if arc.latency:
            coeffs[v] = arc.latency
    return coeffs


@dataclass(frozen=True)
class ObjectiveWeights:
    w_rel: float
    w_lat: float

    def __post_init__(self) -> None:
        # written so that NaN fails both checks
        if not (self.w_rel >= 0 and self.w_lat >= 0):
            raise ValueError(f"objective weights must be non-negative numbers, "
                             f"got {self.w_rel!r} and {self.w_lat!r}")
        if not abs(self.w_rel + self.w_lat - 1.0) <= 1e-12:
            raise ValueError(f"weights must sum to 1, got {self.w_rel + self.w_lat!r}")


@dataclass(frozen=True)
class NormalizationBounds:
    rel_min: float
    rel_max: float
    lat_min: float
    lat_max: float

    def __post_init__(self) -> None:
        for name, value in self.to_json_dict().items():
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                raise ValueError(f"bound {name} must be a finite number, got {value!r}")
        if self.rel_min > self.rel_max or self.lat_min > self.lat_max:
            raise ValueError(f"bounds have a minimum above their maximum: {self.to_json_dict()}")

    @property
    def rel_span(self) -> float:
        return self.rel_max - self.rel_min

    @property
    def lat_span(self) -> float:
        return self.lat_max - self.lat_min

    def _degenerate(self, span: float, lo: float, hi: float) -> bool:
        return span <= 1e-12 * max(1.0, abs(lo), abs(hi))

    @property
    def rel_degenerate(self) -> bool:
        return self._degenerate(self.rel_span, self.rel_min, self.rel_max)

    @property
    def lat_degenerate(self) -> bool:
        return self._degenerate(self.lat_span, self.lat_min, self.lat_max)

    def normalize_rel(self, f_rel: float) -> float:
        if self.rel_degenerate:
            return 0.0
        return (f_rel - self.rel_min) / self.rel_span

    def normalize_lat(self, f_lat: float) -> float:
        if self.lat_degenerate:
            return 0.0
        return (f_lat - self.lat_min) / self.lat_span

    def to_json_dict(self) -> dict:
        return {"rel_min": self.rel_min, "rel_max": self.rel_max,
                "lat_min": self.lat_min, "lat_max": self.lat_max}


class _RawObjectives:
    """The two raw objectives of one prepared model as vectors over its
    variables, ``rel`` and ``lat``, 0.0 where a variable has no term, and
    the variables with a term as index vectors, ``rel_keys`` and
    ``lat_keys``, in each objective's own order."""

    def __init__(self, rel: dict[int, float], lat: dict[int, float], n_vars: int) -> None:
        # numpy is imported on first use, not with this module: loaded
        # before the solver module is compiled, it raises the peak memory
        # of importing ehcalloc by about 2.5 MiB
        import numpy as np

        self.rel_keys = np.fromiter(rel, dtype=np.intp, count=len(rel))
        self.lat_keys = np.fromiter(lat, dtype=np.intp, count=len(lat))
        self.rel, self.lat = np.zeros(n_vars), np.zeros(n_vars)
        self.rel[self.rel_keys] = list(rel.values())
        self.lat[self.lat_keys] = list(lat.values())


def _raw_objectives(reg: CandidateGraph, model: BilpModel) -> _RawObjectives:
    """The raw objectives of ``model``, built once per prepared model from
    ``reg``, the candidate graph the model was built from."""
    return model.shared("raw objectives", lambda: _RawObjectives(
        objective_reliability(reg, model.catalog), objective_latency(reg, model.catalog),
        model.n_vars))


def single_objective(reg: CandidateGraph, model: BilpModel, kind: str) -> BilpModel:
    """``model`` with one raw objective alone, to be maximized.

    ``kind`` is ``rel`` or ``lat`` followed by ``max`` or ``min``, joined
    by ``_`` or ``-``, and is kept as the ``objective_kind``.  A ``min``
    objective is maximized with its sign flipped; ``metadata["sign"]``
    records the factor.
    """
    raw = _raw_objectives(reg, model)
    keys, terms = (raw.rel_keys, raw.rel) if kind.startswith("rel") else (raw.lat_keys, raw.lat)
    sign = 1.0 if kind.endswith("max") else -1.0
    return model.with_objective(dict(zip(keys.tolist(), (sign * terms[keys]).tolist())),
                                objective_kind=kind, sign=sign)


def normalization_bounds(reg: CandidateGraph, model: BilpModel, options=None) -> NormalizationBounds:
    """Best and worst reachable value of each raw objective.

    Four exact solves of the fully constrained model, one per bound,
    within one time limit counted from this call; their root relaxations
    diffuse in one batch.  Infeasibility in any of them means the model
    itself is infeasible.
    """
    from .solver import SolverStatus, deadline_of, solve_all, time_left

    deadline = deadline_of(options)
    kinds = ("rel_max", "rel_min", "lat_max", "lat_min")
    models = [single_objective(reg, model, kind) for kind in kinds]
    extremes = {}
    for kind, aux, sol in zip(kinds, models, solve_all(models, time_left(deadline))):
        if sol.status is SolverStatus.TIME_LIMIT:
            sign = aux.metadata["sign"]
            raise TimeLimitError(
                f"normalization solve {kind} hit the time limit", kind=kind,
                incumbent=None if sol.objective is None else sign * sol.objective,
                # a solve stopped before its search has no finite bound
                bound=sign * sol.bound if sol.bound is not None and math.isfinite(sol.bound)
                else None)
        if sol.status is not SolverStatus.OPTIMAL:
            raise InfeasibleError(f"normalization solve {kind} ended {sol.status.name}")
        extremes[kind] = aux.metadata["sign"] * sol.objective
    return NormalizationBounds(**extremes)


def weighted_objective(
    reg: CandidateGraph,
    model: BilpModel,
    weights: ObjectiveWeights,
    bounds: NormalizationBounds,
) -> BilpModel:
    """Scalarized objective: w_rel * normalized log-reliability minus
    w_lat * normalized latency, to be maximized.

    A degenerate normalization span zeroes that term entirely.  Each
    coefficient is ``0.0 + scale_rel * rel`` and then ``- scale_lat *
    lat``, for all variables in one vector operation each.  Every
    candidate has a latency term, so the latency terms' keys list the
    reliability terms' first.
    """
    import numpy as np

    raw = _raw_objectives(reg, model)
    # from +0.0, so that a product that is -0.0 adds up to 0.0
    coeffs = np.zeros(model.n_vars)
    keys = raw.rel_keys[:0]                 # an empty index vector
    offset = 0.0
    if not bounds.rel_degenerate:
        scale = weights.w_rel / bounds.rel_span
        coeffs += scale * raw.rel
        offset -= scale * bounds.rel_min
        keys = raw.rel_keys
    if not bounds.lat_degenerate:
        scale = weights.w_lat / bounds.lat_span
        coeffs -= scale * raw.lat
        offset += scale * bounds.lat_min
        keys = raw.lat_keys
    return model.with_objective(
        dict(zip(keys.tolist(), coeffs[keys].tolist())), offset,
        objective_kind="weighted",
        weights=(weights.w_rel, weights.w_lat),
        bounds=bounds.to_json_dict(),
    )


def model_stats(model: BilpModel) -> dict:
    """Variable and constraint counts by category."""
    by_kind: dict[str, int] = {}
    for row in model.constraints:
        kind = row.tag.split("[", 1)[0]
        by_kind[kind] = by_kind.get(kind, 0) + 1
    return {
        "variables": model.catalog.category_counts,
        "constraints": {"total": len(model.constraints), **dict(sorted(by_kind.items()))},
    }
