"""Exact solver for the allocation BILP, plus MPS round-trip plumbing.

The built-in solver is a deterministic branch-and-bound over the one
real degree of freedom the model has: which redundancy candidate each
task picks.  The arc variables are implied by that choice, so the
search fixes one task per level and prunes monotone budget rows
incrementally.  Each node saves its two partial sums and its budget
usage once, and every child restarts from that saved state.

The bound is a separable relaxation of a dualized, reparametrized
objective: each open task takes its best candidate, each open arc its
best device pair consistent with fixed endpoints.  It is built in two
steps before the search.

* The monotone ``<=`` budget rows are dualized (Lagrangian relaxation;
  Fisher, Management Science 27(1), 1981).  With multipliers
  ``lam >= 0`` every candidate and arc term pays ``lam_r * coeff /
  rhs_r`` on each budget row r, and the constant ``sum_r lam_r *
  row_cap_r / rhs_r`` is added back, so no pick that fits its budgets
  (up to the row tolerance ``row_cap``) loses anything.
* A few sweeps of max-sum diffusion (Werner, TPAMI 2007) then move mass
  from each workflow arc's device-pair terms into the candidates of its
  endpoint tasks, grouped by primary device.  Every complete pick keeps
  its score, but the relaxation gets much tighter.  The sweeps visit the
  groups in task order (Gauss-Seidel), but run as dependency waves over
  flat numpy arrays: a group reads only its neighbours' messages and
  writes only its own, so each task's groups go into the wave after the
  neighbour updates the task-order loop would have read, pipelined
  across sweeps, and one wave updates all its groups at once.  Every sum
  is added term by term in the loop's order, so the bound is the loop's,
  float for float.  The best terms, per task and per arc, are read off
  the arrays with ``np.maximum.reduceat``; a relaxation then holds the
  candidates' terms as a vector and the rest as flat lists, one
  ``tolist`` each, since the search reads them one float at a time.

The multipliers come from Kelley's cutting-plane method (J. SIAM 8(4),
1960) on the Lagrangian dual.  Its oracle is the diffusion bound; the
slope of each cut is ``(row_cap_r - A_r x) / rhs_r`` at the pick x that
takes every task's first best candidate, and a small simplex solves the
master LP.  When that pick already fits every budget at zero
multipliers, zero is optimal and the first diffusion is the bound.  The
slope is the fit check each relaxation carries: for every column of a
diffused block at once, ``np.minimum.reduceat`` finds each task's first
best candidate and one ``np.bincount`` sums each row's charges, tasks
in order and then arcs, as a loop from 0.0 would.
Feasibility, leaf values and :func:`verify` read only the original rows
and coefficients.

A second bound keeps one budget row exact instead of dualized: a
multiple-choice knapsack over the tail of the search order (Sinha &
Zoltners, Oper. Res. 27(3), 1979).  The tail row is the dualized row
with the largest positive weight ``lam_r / rhs_r`` among those no arc
variable charges.  Once per solve, a suffix table lists per level the
Pareto steps of the open tasks' picks: exact usage of that row against
the best sum of their terms, with the row's charge added back.  A
node's bound is the smaller of the static bound and the static bound
with the tail row's dualized term made exact and the open tasks' best
terms read from the table at the capacity left.  Both shrink down the
tree, so their minimum does.  A solve whose multipliers are all zero
builds no table.

Objectives of one prepared model share its layout, so :func:`solve_all`,
which runs the solves of a normalization or a sweep, gets their roots,
the relaxations at zero multipliers, from one diffusion over a batch of
objectives, one column each, and hands each solve its own column as
:func:`solve_builtin`'s ``root`` argument; every column equals its
objective diffused alone, float for float.

The search order is fixed once the bound is built: tasks with a single
candidate first, so a pinned task that cannot fit fails at the root,
then tasks by descending spread (best minus worst candidate term), and
per task its candidates best term first.  A child's term bounds its
bound from above, so a node's child loop stops at its first child whose
term cannot reach the incumbent (Land & Doig, Econometrica 28(3),
1960); the children after it are never applied.  A leaf's value sums the
original coefficients in the canonical order (tasks in catalog order,
each arc when its later endpoint is added), so the objective reported
for a pick vector depends on neither the bound nor the search order.

The rows of a prepared model are indexed once, CSR style, in
``_RowIndex``: per nonzero its column, coefficient and row, and per row
its rhs, tolerance and sense.  :func:`verify` sums every row at a 0/1
vector in one ``np.bincount`` over it, the same float as
``LinearConstraint.lhs``, and builds a violated row's message from
``lhs`` itself.

The search keeps its own index of a model, ``_Layout``, built from the
variable catalog and the row index on a model's first solve: the budget
rows with each variable's ``(row, coeff)`` pairs, the candidates flat,
task by task, with their tasks, primary devices and budget pairs, and
per task its incident workflow arcs, each with the side the task sits
on.  Devices get small integer codes, and each arc side a slot per code:
the diffusion messages, the best pair per side and device, and the
lookup of an arc between two fixed picks all index those slots, so a
child carries its primary device's code.  The same index holds the
diffusion's flat arrays and its wave schedule.  Each solve sorts all
its candidates into children, task by task and best term first, with
one ``np.lexsort``.

Because the bound and the leaf values sum different terms, they are
never compared for equality: a subtree is pruned only when its bound
falls below the incumbent by more than ``1e-9 * max(1, |incumbent|)``.
Near-ties are explored, and a leaf replaces the incumbent when it scores
higher, or the same with a lexicographically smaller candidate-index
vector, so the search returns the smallest such vector among the optima.
"""

from __future__ import annotations

import enum
import json
import math
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .bilp import BilpModel, LinearConstraint, VariableCatalog


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"


@dataclass
class SolverOptions:
    time_limit: float | None = None       # seconds of wall time

    def __post_init__(self) -> None:
        # a NaN deadline never passes, and a negative one has passed already
        if self.time_limit is not None and not self.time_limit >= 0.0:
            raise ValueError(f"time limit must be a non-negative number of seconds, "
                             f"got {self.time_limit!r}")


def deadline_of(options: SolverOptions | None) -> float | None:
    """The ``time.perf_counter()`` instant at which the time limit of
    ``options``, counted from now, runs out; None without a limit."""
    if options is None or options.time_limit is None:
        return None
    return time.perf_counter() + options.time_limit


def time_left(deadline: float | None) -> SolverOptions:
    """Fresh options holding only the time left until ``deadline``."""
    if deadline is None:
        return SolverOptions()
    return SolverOptions(time_limit=max(0.0, deadline - time.perf_counter()))


@dataclass
class Solution:
    status: SolverStatus
    objective: float | None
    assignment: list[int] | None          # 0/1 per variable index
    bound: float | None                   # valid upper bound on the optimum
    nodes: int = 0
    wall_time: float = 0.0
    choices: list[int] | None = None      # candidate position per task


class _TimeUp(Exception):
    pass


#: sweeps of max-sum diffusion per bound evaluation; on the bundled
#: fixture's 21-point sweep, 20 or 50 sweeps visit as many nodes as 10
DIFFUSION_SWEEPS = 10
#: most bound evaluations Kelley's method spends on the multipliers
KELLEY_CALLS = 30
#: most objectives whose roots :func:`solve_all` diffuses in one batch; a
#: batch holds its models and their diffused terms at once, so a long
#: sweep's memory stays flat, and a 21-point sweep is still one batch
ROOT_BATCH = 32


def _tol(value: float) -> float:
    return 1e-9 * max(1.0, abs(value))


class _RowIndex:
    """A model's rows as flat arrays, CSR style.

    Per nonzero, row by row and in each row's dict order: its column
    (``col``), its coefficient (``coeff``) and its row (``row``).  Per
    row: its ``rhs``, its tolerance ``tol = _tol(rhs)``, ``cap = rhs +
    tol`` and whether its sense is ``<=`` (``le``), any other sense being
    checked as ``=``.  It depends only on the rows, so the search layout
    keeps one per prepared model, which :func:`verify` reads too.
    """

    def __init__(self, rows: list[LinearConstraint]) -> None:
        sizes = [len(row.coeffs) for row in rows]
        nnz = sum(sizes)
        self.col = np.fromiter(chain.from_iterable(row.coeffs for row in rows),
                               dtype=np.intp, count=nnz)
        self.coeff = np.fromiter(chain.from_iterable(row.coeffs.values() for row in rows),
                                 dtype=float, count=nnz)
        self.row = np.repeat(np.arange(len(rows)), sizes)
        self.rhs = np.array([row.rhs for row in rows], dtype=float)
        self.tol = np.array([_tol(row.rhs) for row in rows], dtype=float)
        self.cap = self.rhs + self.tol
        self.le = np.array([row.sense == "<=" for row in rows], dtype=bool)

    def lhs(self, x: np.ndarray) -> np.ndarray:
        """Every row's left-hand side at ``x``: ``bincount`` adds a row's
        products in index order, from 0.0, as ``LinearConstraint.lhs``
        does, so each is that sum, float for float."""
        products = x[self.col]
        products *= self.coeff
        return np.bincount(self.row, weights=products, minlength=len(self.rhs))


def _row_index(model: BilpModel, keep: bool = True) -> _RowIndex:
    return model.shared("row index", lambda: _RowIndex(model.constraints), keep)


class _Layout:
    """What the search reads of a model apart from its objective.

    It depends only on the catalog and the rows, so it is built once per
    prepared model, on its first solve, and shared by the
    ``with_objective`` copies and by every bound evaluation.  A model
    that is only exported never builds it.

    Candidates are numbered flat, task by task, and arc variables in
    ``cat.ends`` order (arc positions).  Devices get codes in first-seen
    order, and side s of arc p has the slot ``(2p + s) * n_devices +
    code`` per device code; a relaxation's ``arc_max`` lists each slot's
    best pair (``-inf`` where the side has no pair through that device).
    Messages live in one float array with an entry per slot, then a pad
    slot that stays 0.0 and a junk slot that padded writes go to.  Ragged
    lists become padded arrays with the terms first, so that a sum or
    maximum runs over axis 0: a padded term reads ``-inf`` under a maximum
    and ``0.0`` under a sum, so padding changes no float.
    """

    def __init__(self, model: BilpModel) -> None:
        cat = model.catalog
        idx = _row_index(model)
        row_of = idx.row
        # the budgets are the monotone <= rows; only these are read, so
        # models read back from MPS, or with rows dropped, work the same
        signed = np.bincount(row_of[~(idx.coeff >= 0.0)], minlength=len(idx.rhs))
        budget_rows = np.flatnonzero(idx.le & (signed == 0))
        pos = np.full(len(idx.rhs), -1)
        pos[budget_rows] = np.arange(len(budget_rows))
        # the budget rows' nonzeros, by variable and then row
        held = pos[row_of]
        held[idx.coeff == 0.0] = -1
        by_var = np.flatnonzero(held >= 0)
        by_var = by_var[np.argsort(idx.col[by_var], kind="stable")]
        pairs = list(zip(held[by_var].tolist(), idx.coeff[by_var].tolist()))
        ends = np.cumsum(np.bincount(idx.col[by_var], minlength=cat.n_vars)).tolist()
        #: per variable, its nonzero (budget row, coeff) pairs
        self.budget: list[list[tuple[int, float]]] = [pairs[a:b]
                                                      for a, b in zip([0] + ends, ends)]
        #: per task, its workflow arcs as (arc, side, other task position)
        self.incident: list[list[tuple[int, int, int]]] = [[] for _ in cat.task_order]
        for p, (i, j) in enumerate(cat.pairs):
            self.incident[i].append((p, 0, j))
            self.incident[j].append((p, 1, i))
        #: the budget rows some arc variable has a coefficient in
        self.arc_rows = {r for a in cat.arcs for r, _ in self.budget[a.var]}
        self.rhs = idx.rhs[budget_rows].tolist()
        self.row_cap = idx.cap[budget_rows].tolist()
        #: the rows the bound dualizes: a finite positive rhs and a coefficient
        used = np.bincount(held[held >= 0], minlength=len(budget_rows))
        self.dual_rows = [r for r, (rhs, n) in enumerate(zip(self.rhs, used.tolist()))
                          if 0.0 < rhs < math.inf and n]
        self.dual_cap, self.dual_rhs = (idx.cap[budget_rows[self.dual_rows]],
                                        idx.rhs[budget_rows[self.dual_rows]])
        # per dualized row, its coefficients, 0.0 where it has none: a budget
        # pair's product is never -0.0, so adding the 0.0 products changes no
        # sum; a last zero column stands for an arc no pick sets
        dual = np.full(len(idx.rhs), -1)
        dual[budget_rows[self.dual_rows]] = np.arange(len(self.dual_rows))
        at = dual[row_of]
        on = at >= 0
        self.dual = np.zeros((len(self.dual_rows), cat.n_vars + 1))
        self.dual[at[on], idx.col[on]] = idx.coeff[on]

        #: the devices by code
        self.devices = list(dict.fromkeys(chain((c.primary for c in cat.candidates),
                                                (dev for ends in cat.ends for end in ends
                                                 for dev in end))))
        code = {dev: d for d, dev in enumerate(self.devices)}
        self.n_devices = n_dev = len(self.devices)
        self.n_slots = pad = 2 * len(cat.pairs) * n_dev
        #: arc variables in cat.ends order, with their source and destination slots
        self.arc_vars = [var for src, _ in cat.ends for row in src.values() for var in row.values()]
        arc_pos = {var: i for i, var in enumerate(self.arc_vars)}
        n_arcs = len(self.arc_vars)
        self.arc_src = np.array([2 * p * n_dev + code[k] for p, (src, _) in enumerate(cat.ends)
                                 for k, row in src.items() for _ in row], dtype=np.intp)
        self.arc_dst = np.array([(2 * p + 1) * n_dev + code[l] for p, (src, _) in enumerate(cat.ends)
                                 for row in src.values() for l in row], dtype=np.intp)
        #: per arc, the position of its first arc variable
        self.pair_first = np.searchsorted(self.arc_src, 2 * n_dev * np.arange(len(cat.pairs)))
        #: per arc position, its budget pairs; per slot, the arc position at
        #: each other side's slot; per source slot and destination code, the
        #: arc variable, else the zero column
        self.arc_budget = [self.budget[var] for var in self.arc_vars]
        self.pair_at: list[dict[int, int]] = [{} for _ in range(pad)]
        for a, (i, j) in enumerate(zip(self.arc_src.tolist(), self.arc_dst.tolist())):
            self.pair_at[i][j] = self.pair_at[j][i] = a
        self.pair_var = np.full(pad * n_dev, cat.n_vars, dtype=np.intp)
        self.pair_var[self.arc_src * n_dev + self.arc_dst % max(n_dev, 1)] = self.arc_vars
        self.pair_ends = np.array(cat.pairs, dtype=np.intp).reshape(-1, 2).T
        #: per slot, its arc variables' positions; position n_arcs reads -inf
        by_slot = [[arc_pos[var] for var in end.get(dev, {}).values()]
                   for ends in cat.ends for end in ends for dev in self.devices] + [[]]
        self.slot_arcs = _columns(by_slot, n_arcs)

        #: per task, the flat position of its first candidate; then their count
        self.first = [0]
        for t, positions in zip(cat.task_order, cat.options):
            if not positions:
                raise ValueError(f"task {t} has no candidates")
            self.first.append(self.first[-1] + len(positions))
        self.starts = np.array(self.first[:-1], dtype=np.intp)
        picks = [cat.candidates[i] for positions in cat.options for i in positions]
        #: per flat candidate: its variable, task, position in the task,
        #: primary device's code and budget pairs
        self.cand_at = np.array([c.var for c in picks], dtype=np.intp)
        self.cand_task = np.repeat(np.arange(len(cat.options)), np.diff(self.first))
        self.cand_k = np.arange(len(picks)) - self.starts[self.cand_task]
        self.cand_dev = np.array([code[c.primary] for c in picks], dtype=np.intp)
        self.cand_rows = np.fromiter((self.budget[c.var] for c in picks), dtype=object,
                                     count=len(picks))
        self.arc_at = np.array(self.arc_vars, dtype=np.intp)
        self.dual_cands = self.dual[:, self.cand_at]
        self.dual_arcs = self.dual[:, self.arc_at]
        # per task and primary device: the slots its candidates' gains sum,
        # one per incident arc side in incident order, pad where the device
        # has no pair there.  With a slot on every arc side, it is a
        # diffusion group, which writes those slots: its candidates there
        # and per slot the slot's (arc variable, other side's slot) pairs
        own: list[list[int]] = []
        cand_own, members, groups, task_of = [], [], [], []
        codes = self.cand_dev.tolist()
        for t, incident in enumerate(self.incident):
            a, b = self.first[t], self.first[t + 1]
            bases, own_of = [(2 * p + s) * n_dev for p, s, _ in incident], {}
            for d in dict.fromkeys(codes[a:b]):
                own_of[d] = len(own)
                own.append([base + d if by_slot[base + d] else pad for base in bases])
                # a group with no device pair on some arc can never be picked
                if incident and pad not in own[-1]:
                    members.append([k for k in range(a, b) if codes[k] == d])
                    groups.append(len(own) - 1)
                    task_of.append(t)
            cand_own += [own_of[d] for d in codes[a:b]]
        owned = _columns(own, pad)
        #: per candidate, the slots its gain sums
        self.cand_gain = owned[:, cand_own]
        #: per group, its candidates' flat positions; position first[-1] reads -inf
        self.group_members = _columns(members, self.first[-1])

        # the waves: task t's groups in sweep k after every neighbour u < t
        # in sweep k, and after t itself and every neighbour u > t in sweep
        # k - 1; a wave's groups read and write disjoint slots, so updating
        # them together equals updating them one by one in task order
        grouped = set(task_of)
        before = [[u for _, _, u in incident if u in grouped and u < t]
                  for t, incident in enumerate(self.incident)]
        after = [[u for _, _, u in incident if u in grouped and u > t]
                 for t, incident in enumerate(self.incident)]
        done = [-1] * len(cat.options)
        wave_of: list[int] = []
        for _ in range(DIFFUSION_SWEEPS):
            latest = list(done)
            for t in sorted(grouped):
                last = latest[t]
                for u in before[t]:
                    if done[u] > last:
                        last = done[u]
                for u in after[t]:
                    if latest[u] > last:
                        last = latest[u]
                done[t] = 1 + last
            wave_of += [done[t] for t in task_of]
        # every sweep's groups, by wave, and within one by sweep and group
        wave_of = np.array(wave_of, dtype=np.intp)
        order = np.argsort(wave_of, kind="stable")
        #: every wave's groups in turn
        self.wave_groups = ids = order % max(len(task_of), 1)
        # per group, padded to the widest group: the slots it writes, [arcs,
        # groups], and the arc variables and other-side slots of its
        # marginals, [pairs, arcs, groups], read off per-slot tables.  A
        # padded arc reads 0.0 from arc position n_arcs + 1, so its marginal
        # adds nothing; a padded pair of a real arc reads -inf from position
        # n_arcs.
        width = np.array([len(self.incident[t]) for t in task_of], dtype=np.intp)
        writes = owned[:max(width, default=0), groups]
        depth = np.array([len(row) for row in by_slot], dtype=np.intp)[writes].max(
            axis=0, initial=0)
        arcs = self.slot_arcs[:max(depth, default=0)].copy()
        arcs[:, pad] = n_arcs + 1
        side = np.append(np.repeat(np.arange(2 * len(cat.pairs)) % 2, n_dev), 0)
        ends = np.append(self.arc_src, [pad, pad]), np.append(self.arc_dst, [pad, pad])
        others = np.where(side == 0, ends[1][arcs], ends[0][arcs])
        #: per wave: where its groups start and end in wave_groups, the
        #: slots they read and write (a write to the pad slot goes to the
        #: junk slot), the arc variables and other-side slots of their
        #: marginals, and their divisors, one plus their arc counts, flat
        #: and as a column; each cut to the wave's widest group from one
        #: array that holds every wave in turn, and copied whole, since an
        #: index array read in strides makes every lookup slower
        writes, divisor = writes[:, ids], 1.0 + width[ids]
        dest = np.where(writes == pad, pad + 1, writes)
        arcs, others = arcs[:, writes], others[:, writes]
        counts = np.bincount(wave_of)
        starts, bounds = np.cumsum(counts) - counts, np.cumsum(counts)
        deepest, widest = (np.maximum.reduceat(x[ids], starts).tolist() for x in (depth, width))
        whole = np.ascontiguousarray
        self.waves: list[tuple] = [
            (a, b, whole(writes[:w, a:b]), whole(dest[:w, a:b]), whole(arcs[:d, :w, a:b]),
             whole(others[:d, :w, a:b]), divisor[a:b], divisor[a:b, None])
            for a, b, d, w in zip(starts.tolist(), bounds.tolist(), deepest, widest)]

    def relax(self, cvals: np.ndarray, avals: np.ndarray, lam: list[float],
              expired) -> Iterator[_Relaxation]:
        """Dualize the budget rows with multipliers ``lam``, then run
        max-sum diffusion, for a block of objectives over this layout.

        ``cvals`` holds the candidates' objective terms, flat task by
        task, and ``avals`` the arc variables' in :attr:`arc_vars` order:
        one objective as plain vectors, or several as one column each.
        Every operation acts column by column, so each column's
        relaxation is the one its objective gets alone, float for float;
        one relaxation per objective comes back.  The diffusion runs when
        the first is asked for, and each is read off its column, one
        ``tolist`` per field, only when it is asked for.

        Each candidate and arc term pays ``lam_r * coeff / rhs_r`` on
        every dualized row r, and ``sum_r lam_r * row_cap_r / rhs_r`` is
        added back as a constant, so a pick that fits its budgets scores
        at most its objective.

        A diffusion message then moves objective mass from one side of a
        workflow arc into the candidates of that side's task on one
        primary device: they gain it, and the arc's device pairs through
        that device lose it.  A complete pick gains on its candidates
        exactly what it loses on its arcs, so its score is unchanged.
        Each sweep visits every group of the layout and sets its messages
        so that the group's best candidate and its best device pair on
        each incident arc score the same.  The sweeps run as the layout's
        waves, each a few array operations over all its groups.  Every
        wave leaves a valid reparametrization, so diffusion simply stops
        early once ``expired()`` holds; it is asked once per sweep's worth
        of waves.
        """
        weight = [0.0] * len(self.rhs)
        # each term's charge, added row by row in row order; a row with a
        # zero multiplier would add only 0.0
        ccharge, acharge = np.zeros(len(cvals)), np.zeros(len(avals))
        for k, (r, value) in enumerate(zip(self.dual_rows, lam)):
            weight[r] = value / self.rhs[r]
            if value:
                ccharge += weight[r] * self.dual_cands[k]
                acharge += weight[r] * self.dual_arcs[k]
        # a block reads the per-term charges and the per-group divisors as columns
        block = cvals.ndim > 1
        if block:
            ccharge, acharge = ccharge[:, None], acharge[:, None]
        # the candidates' and arc variables' dualized terms; a -inf after
        # each for padded maxima, and a 0.0 after the arcs' for padded sums
        cval = _stacked(cvals - ccharge, -math.inf)
        aval = _stacked(avals - acharge, -math.inf, 0.0)
        # every wave's groups' best candidate terms, in turn
        base = np.maximum.reduce(cval[self.group_members], initial=-math.inf)[self.wave_groups]

        # msgs[slot]: mass moved from an arc side into its task on one
        # device; the pad slot reads 0.0, the junk slot after it is never
        # read.  No message is ever -0.0 (x + held is -0.0 only if held is),
        # so a sum of messages from its first term equals one from 0.0, and
        # so does u, never -0.0 either, plus a sum of marginals
        msgs = np.zeros((self.n_slots + 2,) + cvals.shape[1:])
        every = -(-len(self.waves) // DIFFUSION_SWEEPS)
        for w, (a, b, mine, dest, arcs, others, flat, column) in enumerate(self.waves):
            if w % every == 0 and expired():
                break
            held = msgs.take(mine, axis=0)
            marginals = np.maximum.reduce(aval.take(arcs, axis=0) - msgs.take(others, axis=0))
            marginals -= held
            # (u + sum(marginals)) / divisor with u = base + sum(held)
            avg = (_addup(marginals) + (_addup(held) + base[a:b])) / (column if block else flat)
            msgs[dest] = held + (marginals - avg)

        # per candidate, the mass its arcs moved into its primary device
        crobj = cval[:-1] + _addup(msgs[self.cand_gain])
        arc_terms = aval[:-2] - msgs[self.arc_src] - msgs[self.arc_dst]
        slot_max = np.maximum.reduce(_stacked(arc_terms, -math.inf)[self.slot_arcs],
                                     initial=-math.inf)
        task_max = np.maximum.reduceat(crobj, self.starts, axis=0)
        fields = (arc_terms, slot_max[:-1], task_max,
                  np.maximum.reduceat(arc_terms, self.pair_first, axis=0),
                  self._slopes(crobj, task_max))
        constant = sum(weight[r] * self.row_cap[r] for r in self.dual_rows)
        # each column's lists are read off when it is asked for
        columns = zip(crobj.T, *(f.T for f in fields)) if block else [(crobj, *fields)]
        for cterms, *rest in columns:
            yield _Relaxation(cterms, *(f.tolist() for f in rest), constant, list(lam))

    def _slopes(self, crobj: np.ndarray, task_max: np.ndarray) -> np.ndarray:
        """Per dualized row, ``(row_cap - A x) / rhs`` at the pick x that
        takes every task's first best candidate: a subgradient of the
        bound in the multipliers whenever that pick attains it, and
        nonnegative on every row exactly when that pick fits.  It checks
        every column of a block at once, with one ``np.bincount`` over the
        picks' charges: per row and column, tasks in order, then arcs.
        """
        n_rows, n, shape = len(self.dual_rows), len(crobj), crobj.shape
        if not n_rows:
            return np.empty((0,) + shape[1:])
        crobj, task_max = crobj.reshape(n, -1), task_max.reshape(len(task_max), -1)
        best = np.where(crobj == task_max[self.cand_task], np.arange(n)[:, None], n)
        pick = np.minimum.reduceat(best, self.starts, axis=0)
        dev, n_dev = self.cand_dev[pick], self.n_devices
        src, dst = self.pair_ends
        arcs = self.pair_var[(2 * np.arange(len(src))[:, None] * n_dev + dev[src]) * n_dev
                             + dev[dst]]
        # per row and column, the charges in order: [rows, columns, charges]
        charges = self.dual[:, np.concatenate([self.cand_at[pick], arcs]).T]
        bins = np.arange(n_rows * crobj.shape[1]).reshape(-1, n_rows).T
        usage = np.bincount(np.broadcast_to(bins[:, :, None], charges.shape).ravel(),
                            weights=charges.ravel(), minlength=bins.size)
        slope = (self.dual_cap[:, None] - usage.reshape(-1, n_rows).T) / self.dual_rhs[:, None]
        return slope.reshape((n_rows,) + shape[1:])


def _addup(terms: np.ndarray) -> np.ndarray:
    """A new array with the sum over axis 0 of ``terms``, added term by
    term in order from the first; ``np.sum`` may add them pairwise, which
    can round differently."""
    if not len(terms):
        return np.zeros(terms.shape[1:])
    total = terms[0] + terms[1] if len(terms) > 1 else terms[0].copy()
    for term in terms[2:]:
        total += term
    return total


def _stacked(values: np.ndarray, *fills: float) -> np.ndarray:
    """``values`` with one more entry per fill along axis 0, each a row of
    that value; ``np.append`` would flatten a block."""
    out = np.empty((len(values) + len(fills),) + values.shape[1:])
    out[:len(values)] = values
    for k, fill in enumerate(fills, start=len(values)):
        out[k] = fill
    return out


def _columns(rows: list[list], fill, dtype=np.intp) -> np.ndarray:
    """A ragged list of lists as one array with the terms first: entry
    ``[k, i]`` is ``rows[i][k]``, or ``fill`` past the end of that row."""
    sizes = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    out = np.full((sizes.max(initial=0), len(rows)), fill, dtype=dtype)
    row = np.repeat(np.arange(len(rows)), sizes)
    out[np.arange(len(row)) - (np.cumsum(sizes) - sizes)[row], row] = \
        np.fromiter(chain.from_iterable(rows), dtype=dtype, count=len(row))
    return out


def _layout(model: BilpModel) -> _Layout:
    return model.shared("search layout", lambda: _Layout(model))


def _objective_terms(models: list[BilpModel],
                     lay: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """The objectives' terms on the candidates, flat task by task, and on
    the arc variables in the layout's order, one contiguous column each."""
    objs = [model.objective for model in models]
    sizes = [len(obj) for obj in objs]
    dense = np.zeros((len(objs), models[0].n_vars))
    dense[np.repeat(np.arange(len(objs)), sizes),
          np.fromiter(chain.from_iterable(objs), dtype=np.intp, count=sum(sizes))] = \
        np.fromiter(chain.from_iterable(obj.values() for obj in objs), dtype=float,
                    count=sum(sizes))
    return dense[:, lay.cand_at].T, dense[:, lay.arc_at].T


class _Relaxation:
    """The separable bound of one dualized, reparametrized objective.

    ``crobj`` holds the candidates' terms as a vector, flat task by task,
    the rest are lists: ``arobj`` per arc position its term, ``task_max``
    per task its best term, ``arc_bound`` per arc its best pair, and
    ``arc_max`` per arc side and device code the best pair through that
    device (``-inf`` for none).  ``bound`` sums the best terms and the
    multipliers' constant.  Per dualized row, ``lam`` holds its multiplier
    and ``slope`` the fit check of :meth:`_Layout._slopes`.
    """

    def __init__(self, crobj, arobj, arc_max, task_max, arc_bound, slope, constant,
                 lam) -> None:
        self.lam = lam
        self.crobj = crobj
        self.arobj = arobj
        self.arc_max = arc_max
        self.task_max = task_max
        self.arc_bound = arc_bound
        self.slope = slope
        self.bound = constant + sum(task_max) + sum(arc_bound)


class _TaskChoiceSearch:
    """Branch-and-bound state; one instance per solve."""

    def __init__(self, model: BilpModel, options: SolverOptions, root=None) -> None:
        # first, so that building the layout counts against the limit
        self.deadline = deadline_of(options)
        self.model = model
        self.cat = cat = model.catalog
        self.lay = lay = _layout(model)
        self.n_tasks = len(cat.task_order)
        # the objective's terms, candidates flat and arcs in the layout's
        # order, and the relaxation at zero multipliers, if solve_all
        # diffused it already
        if root is None:
            cvals, avals = _objective_terms([model], lay)
            root = (cvals[:, 0], avals[:, 0]), None
        (self.cflat, self.aflat), self.root = root
        # per task, its candidates' terms, and per arc position its term
        flat = self.cflat.tolist()
        self.cobj = [flat[a:b] for a, b in zip(lay.first, lay.first[1:])]
        self.aobj = self.aflat.tolist()

        # mutable search state; the bounds are set by run()
        self.chosen: list[int] = [-1] * self.n_tasks
        #: per arc, its arc position once both ends are fixed, and the
        #: side-and-device index of the end fixed first
        self.arc_var = [-1] * len(cat.pairs)
        self.opened = [-1] * len(cat.pairs)
        self.usage = [0.0] * len(lay.rhs)
        self.rpartial = 0.0
        self.best_g = -math.inf
        self.best_vec: tuple[int, ...] | None = None
        # a bound below this prunes; set per incumbent by _accept_leaf
        self.prune_below = -math.inf
        self.max_pruned = -math.inf
        self.nodes = 0

    def _expired(self) -> bool:
        return self.deadline is not None and time.perf_counter() > self.deadline

    # -- the bound -------------------------------------------------------------

    def _relax(self, lam: list[float]) -> _Relaxation:
        """This solve's objective relaxed alone at multipliers ``lam``."""
        return next(self.lay.relax(self.cflat, self.aflat, lam, self._expired))

    def _multipliers(self) -> _Relaxation:
        """The tightest relaxation Kelley's cutting-plane method finds.

        Every oracle call is one :meth:`_relax`; its cut is the bound
        plus the relaxation's ``slope`` times the step in the
        multipliers, and the next multipliers minimize the cuts' maximum
        over a box.  It stops when that minimum closes on the best bound,
        when the best-candidate pick fits its budgets with complementary
        slackness (at zero multipliers: fits them at all), or when the
        deadline passes.  Any multipliers give a valid bound.  It starts
        from a root :func:`solve_all` diffused for this model, if any.
        """
        lam = [0.0] * len(self.lay.dual_rows)
        best = relax = self._relax(lam) if self.root is None else self.root
        if not lam:
            return best
        cuts: list[tuple[float, list[float]]] = []
        # the box keeps the master LP bounded; boxes 5 or 50 times larger
        # reach the same bounds on the synthetic mixed and serial n=40
        upper = [2.0 * max(1.0, abs(relax.bound))] * len(lam)
        seen = {tuple(lam)}
        for _ in range(KELLEY_CALLS):
            slope = relax.slope
            step = sum(l * g for l, g in zip(lam, slope))
            if min(slope) >= 0.0 and step <= _tol(relax.bound):
                break
            cuts.append((relax.bound - step, slope))
            theta, lam = _kelley_master(cuts, upper)
            # the last 1e-6 (relative) of the gap would prune next to nothing
            if theta >= best.bound - 1e-6 * max(1.0, abs(best.bound)) \
                    or tuple(lam) in seen or self._expired():
                break
            seen.add(tuple(lam))
            relax = self._relax(lam)
            if relax.bound < best.bound:
                best = relax
        return best

    def _install(self, relax: _Relaxation) -> None:
        """Adopt a relaxation as the bound and fix the search order:
        single-candidate tasks first, then tasks by descending spread of
        their candidate terms; per task, children best term first, and of
        equal terms the one listed first.  The order fixes which arcs each
        task opens and which it closes.

        The tail row, of the dualized rows that charge no arc the one
        with the largest positive ``lam_r / rhs_r``, gets the table of
        :meth:`_tail_table`; with no such row there is none.  The table
        drops arcs' charges, so a row that has some would give no bound.
        """
        self.relax = relax
        self.future = relax.bound
        lay = self.lay
        # the candidates by task, best term first: one stable sort of all
        perm = np.lexsort((-relax.crobj, lay.cand_task))
        first, ranked = lay.first, relax.crobj[perm].tolist()
        # a task's last child has its smallest term, and min - best is
        # -(best - min), the spread negated, float for float
        key = [(a + 1 < b, ranked[b - 1] - best)
               for a, b, best in zip(first, first[1:], relax.task_max)]
        self.order = sorted(range(self.n_tasks), key=key.__getitem__)
        rank = [0] * self.n_tasks
        for d, t in enumerate(self.order):
            rank[t] = d
        # per incident arc: the arc, its side's index in arc_max, and
        # whether the task opens it
        n_dev = lay.n_devices
        self.arcs = [[(p, (2 * p + s) * n_dev, rank[other] > rank[t]) for p, s, other in incident]
                     for t, incident in enumerate(lay.incident)]
        # children are (position in task, primary device code, budget pairs, term)
        kids = list(zip(lay.cand_k[perm].tolist(), lay.cand_dev[perm].tolist(),
                        lay.cand_rows[perm].tolist(), ranked))
        self.children = [kids[a:b] for a, b in zip(first, first[1:])]
        weight = {r: lam / lay.rhs[r] for r, lam in zip(lay.dual_rows, relax.lam)
                  if lam > 0.0 and r not in lay.arc_rows}
        self.tail: list[tuple[array, array]] | None = None
        if weight:
            self.tail_row = row = max(weight, key=weight.get)
            self.tail_weight = weight[row]
            self.tail_cap = lay.row_cap[row]
            self.tail_tol = _tol(self.tail_cap)
            self.tail = self._tail_table(relax)

    def _tail_table(self, relax: _Relaxation) -> list[tuple[array, array]]:
        """Per level d, the Pareto steps of an exact multiple-choice
        knapsack over the tail row for the tasks ``order[d:]`` (Kellerer,
        Pferschy & Pisinger, Knapsack Problems, 2004, ch. 11): per pick
        no other beats on both, its row usage, up to ``tail_cap`` plus the
        row tolerance, and the sum of its terms with the row's charge
        ``weight * coeff`` added back, less the tasks' ``task_max``.  A
        level is ``(weights, values)`` by rising weight, values led by
        ``-inf``: ``values[bisect_right(weights, room)]`` is the best value
        of a pick using at most ``room``.  Level d merges, per coefficient
        of task ``order[d]``, level d + 1 shifted by it and its best term.
        """
        row, weight, heaviest = self.tail_row, self.tail_weight, self.tail_cap + self.tail_tol
        lay, terms = self.lay, relax.crobj.tolist()
        # the row's coefficient on each candidate, 0.0 where it has none
        coeffs = lay.dual_cands[lay.dual_rows.index(row)].tolist()
        steps = [(np.zeros(1), np.zeros(1))]
        for t in reversed(self.order):
            weights, values = steps[-1]
            # per distinct coefficient, the task's best term with its charge
            best: dict[float, float] = {}
            a, b = lay.first[t], lay.first[t + 1]
            for coeff, term in zip(coeffs[a:b], terms[a:b]):
                best[coeff] = max(best.get(coeff, -math.inf), term + weight * coeff)
            # the shifted copies by weight; a step stays if it fits and beats
            # every lighter one, and of equal weights the last, the best
            shifted = np.concatenate([weights + coeff for coeff in best])
            gained = np.concatenate([values + (v - relax.task_max[t]) for v in best.values()])
            by = np.argsort(shifted, kind="stable")
            shifted, gained = shifted[by], gained[by]
            lighter = np.append(-math.inf, np.maximum.accumulate(gained)[:-1])
            keep = (shifted <= heaviest) & (gained > lighter)
            weights, values = shifted[keep], gained[keep]
            last = np.diff(weights, append=math.inf) > 0.0
            steps.append((weights[last], values[last]))
        return [(array("d", w.tobytes()), array("d", np.append(-math.inf, v).tobytes()))
                for w, v in reversed(steps)]

    # -- incremental choice application, restarted from each node's state ----

    def _apply(self, t: int, child: tuple) -> bool:
        """Fix task ``t`` to candidate ``child``; False as soon as the
        partial choice cannot fit.  Opening an arc bounds it by its best
        pair through the child's device on the task's side; closing one
        swaps the opener's bound for the arc's term.  The state is left as
        the child made it: :meth:`_dfs` restores the node's saved state
        after every child."""
        # checked from the first node on, so a deadline that passed while
        # the bound was built stops the search at once
        if self.nodes % 256 == 0 and self._expired():
            raise _TimeUp
        self.nodes += 1
        k, dev, rows, term = child
        relax, usage, cap = self.relax, self.usage, self.lay.row_cap
        self.chosen[t] = k
        for rpos, coeff in rows:
            usage[rpos] += coeff
            if usage[rpos] > cap[rpos]:
                return False
        self.rpartial += term
        self.future -= relax.task_max[t]

        for p, side, opens in self.arcs[t]:
            if opens:
                newb = relax.arc_max[side + dev]
                if newb == -math.inf:
                    return False
                self.future += newb - relax.arc_bound[p]
                self.opened[p] = side + dev
                continue
            other = self.opened[p]
            self.future -= relax.arc_max[other]
            a = self.lay.pair_at[side + dev].get(other)
            if a is None:
                return False
            self.arc_var[p] = a
            self.rpartial += relax.arobj[a]
            for rpos, coeff in self.lay.arc_budget[a]:
                usage[rpos] += coeff
                if usage[rpos] > cap[rpos]:
                    return False
        return True

    # -- search --------------------------------------------------------------

    def _accept_leaf(self) -> None:
        # the leaf value reads the original terms in canonical order: tasks
        # in catalog order, each arc when its later endpoint is added
        g = 0.0
        for t, incident in enumerate(self.lay.incident):
            g += self.cobj[t][self.chosen[t]]
            for p, _, other in incident:
                if other < t:
                    g += self.aobj[self.arc_var[p]]
        g += self.model.objective_offset
        vec = tuple(self.chosen)
        # among equal optima the lexicographically smallest vector wins,
        # whatever order the search reaches them in
        if g > self.best_g or (g == self.best_g and vec < self.best_vec):
            self.best_g = g
            self.best_vec = vec
            # the bound and the leaf values sum different terms, so only a
            # clear miss is pruned; near-ties are explored, never dropped
            self.prune_below = g - _tol(g)

    def _dfs(self, level: int, parent_bound: float = math.inf) -> None:
        if level == self.n_tasks:
            self._accept_leaf()
            return
        t = self.order[level]
        # the tail table of the tasks still open below this level
        weights, values = self.tail[level + 1] if self.tail is not None else (None, None)
        offset = self.model.objective_offset
        # every child starts from this node's state, restored exactly
        rpartial, future, usage = self.rpartial, self.future, self.usage[:]
        # no child's bound exceeds this plus its term: its arcs only lower
        # the static bound, and the table bound is at most the static one
        start = rpartial + future + offset - self.relax.task_max[t]
        for child in self.children[t]:
            # children come best term first, so the first that cannot reach
            # the incumbent bounds every one after it, and none is applied
            if start + child[3] < self.prune_below:
                self.max_pruned = max(self.max_pruned, start + child[3])
                break
            if self._apply(t, child):
                bound = self.rpartial + self.future + offset
                if values is not None:
                    # the knapsack bound: the static bound with the tail row's
                    # dualized term, weight * (usage - row_cap), kept exact, and
                    # the open tasks' best terms replaced by the best step within the
                    # slack; the row tolerance covers the table's other addition order
                    slack = self.tail_cap - self.usage[self.tail_row]
                    bound = min(bound, bound - self.tail_weight * slack
                                + values[bisect_right(weights, slack + self.tail_tol)])
                # a child's bound may pass its parent's only by the tolerance
                if bound > parent_bound and bound > parent_bound + _tol(parent_bound):
                    raise RuntimeError("relaxation bound increased down the tree")
                if bound < self.prune_below:
                    self.max_pruned = max(self.max_pruned, bound)
                else:
                    self._dfs(level + 1, bound)
            self.rpartial, self.future = rpartial, future
            self.usage[:] = usage
        self.chosen[t] = -1

    def run(self) -> Solution:
        t0 = time.perf_counter()
        if self._expired():
            # nothing was searched, so nothing bounds the optimum
            return Solution(SolverStatus.TIME_LIMIT, None, None, bound=math.inf,
                            wall_time=time.perf_counter() - t0)
        self._install(self._multipliers())
        root_bound = self.future + self.model.objective_offset
        status = SolverStatus.OPTIMAL
        try:
            self._dfs(0)
        except _TimeUp:
            status = SolverStatus.TIME_LIMIT

        wall = time.perf_counter() - t0
        timed_out = status is SolverStatus.TIME_LIMIT
        if self.best_vec is None:
            return Solution(status if timed_out else SolverStatus.INFEASIBLE, None, None,
                            bound=root_bound if timed_out else None,
                            nodes=self.nodes, wall_time=wall)
        bound = root_bound if timed_out else max(self.best_g, self.max_pruned)
        picks = [positions[pos] for positions, pos in zip(self.cat.options, self.best_vec)]
        return Solution(status, self.best_g, self.cat.vector(picks),
                        bound=bound, nodes=self.nodes, wall_time=wall,
                        choices=list(self.best_vec))


def _kelley_master(cuts: list[tuple[float, list[float]]],
                   upper: list[float]) -> tuple[float, list[float]]:
    """Minimize ``theta`` over ``theta >= a + g . lam`` for every cut
    ``(a, g)`` and ``0 <= lam <= upper``; returns ``(theta, lam)``.

    Solved as its dual: maximize ``sum_k mu_k a_k - sum_r upper_r nu_r``
    over ``mu, nu >= 0`` with ``sum_k mu_k = 1`` and, per row r,
    ``sum_k mu_k g_kr + nu_r >= 0``.  That has R + 1 equality rows
    (surplus ``s_r``), and all of ``mu`` on one cut, with ``nu_r`` or
    ``s_r`` absorbing each entry of its slope, is a feasible start.  A
    revised simplex with Bland's rule keeps it finite and deterministic;
    ``theta`` and ``lam`` are the simplex multipliers of its last basis.
    """
    n_cuts, n_rows = len(cuts), len(upper)
    m = n_rows + 1
    # columns mu_k, nu_r, s_r; row r + 1 reads -sum_k mu_k g_kr - nu_r + s_r = 0
    cols = [[1.0] + [-g for g in slope] for _, slope in cuts]
    cols += [[0.0] * (1 + r) + [-1.0] + [0.0] * (n_rows - r - 1) for r in range(n_rows)]
    cols += [[0.0] * (1 + r) + [1.0] + [0.0] * (n_rows - r - 1) for r in range(n_rows)]
    cost = [a for a, _ in cuts] + [-u for u in upper] + [0.0] * n_rows
    eps = 1e-12 * max(1.0, max(abs(a) for a, _ in cuts))

    start = cuts[-1][1]
    sign = [-1.0 if g < 0.0 else 1.0 for g in start]       # nu_r or s_r basic
    basis = [n_cuts - 1] + [n_cuts + r if g < 0.0 else n_cuts + n_rows + r
                            for r, g in enumerate(start)]
    binv = [[1.0] + [0.0] * n_rows]
    for r, (g, d) in enumerate(zip(start, sign)):
        row = [0.0] * m
        row[0], row[1 + r] = d * g, d
        binv.append(row)
    x_b = [row[0] for row in binv]

    for _ in range(50 * m * len(cols)):
        y = [sum(cost[basis[i]] * binv[i][j] for i in range(m)) for j in range(m)]
        in_basis = set(basis)
        enter = next((j for j, col in enumerate(cols) if j not in in_basis
                      and cost[j] - sum(a * b for a, b in zip(y, col)) > eps), None)
        if enter is None:
            break
        u = [sum(a * b for a, b in zip(row, cols[enter])) for row in binv]
        leave = min((i for i in range(m) if u[i] > 1e-12),
                    key=lambda i: (x_b[i] / u[i], basis[i]))
        piv = u[leave]
        binv[leave] = [v / piv for v in binv[leave]]
        x_b[leave] /= piv
        for i in range(m):
            if i != leave and u[i] != 0.0:
                f = u[i]
                binv[i] = [a - f * b for a, b in zip(binv[i], binv[leave])]
                x_b[i] -= f * x_b[leave]
        basis[leave] = enter
    return y[0], [min(max(v, 0.0), u) for v, u in zip(y[1:], upper)]


def solve_all(models: Iterable[BilpModel],
              options: SolverOptions | None = None) -> Iterator[Solution]:
    """Solve each of ``models`` with :func:`solve_builtin`, in order,
    yielding each solution in turn.

    The models are ``with_objective`` copies of one prepared model, so
    they share one layout.  They are read in batches of up to
    :data:`ROOT_BATCH`, and the roots of a batch, the relaxations at zero
    multipliers, diffuse in one call, one column per objective, and are
    fit-checked in one more; each solve is passed its own model's terms
    and root.  Every column equals its objective diffused alone, float for
    float, so each solution is the one its model gets alone.  The time limit in ``options`` bounds all
    the solves, counted from the first solution asked for.
    """
    deadline = deadline_of(options)
    models = iter(models)
    while batch := list(islice(models, ROOT_BATCH)):
        lay = _layout(batch[0])
        if any(_layout(model) is not lay for model in batch):
            raise ValueError("solve_all needs models that share one catalog and its rows")
        # a model alone diffuses its root as plain vectors, which is faster
        roots = [None]
        if len(batch) > 1:
            cvals, avals = _objective_terms(batch, lay)
            roots = zip(zip(cvals.T, avals.T), lay.relax(
                cvals, avals, [0.0] * len(lay.dual_rows),
                lambda: deadline is not None and time.perf_counter() > deadline))
        for model, root in zip(batch, roots):
            yield solve_builtin(model, time_left(deadline), root=root)


def solve_builtin(model: BilpModel, options: SolverOptions | None = None, *,
                  root=None) -> Solution:
    """Solve to proven optimality.

    ``root``, passed only by :func:`solve_all`, is the ``(terms,
    relaxation)`` pair it diffused for this model: the objective's terms,
    its column of ``_objective_terms``, and the relaxation at zero
    multipliers.  Without it the solve computes both itself.

    The final incumbent is re-checked against every constraint row; a
    violation means the model does not have the task-choice structure
    this solver relies on, and is reported as an error rather than a
    wrong answer.
    """
    opts = options or SolverOptions()
    search = _TaskChoiceSearch(model, opts, root)
    sol = search.run()
    if sol.assignment is not None:
        bad = verify(model, sol.assignment)
        if bad:
            raise ValueError("solution violates model rows: " + "; ".join(bad[:5]))
    return sol


def verify(model: BilpModel, assignment: list[int]) -> list[str]:
    """Check an assignment against every row, each within a tolerance of
    ``1e-9`` relative to its rhs; returns violation messages.

    Every row's left-hand side comes from the model's row index in one
    array sum, the same float as ``LinearConstraint.lhs``; the message of
    a violated row reads ``lhs`` itself, so an integer row prints as one.
    A model that was solved has the index already; for one that was not,
    such as a model read back to be checked once, it is built and not kept.
    """
    idx = _row_index(model, keep=False)
    x = np.asarray(assignment, dtype=float)
    issues = [f"variable {model.catalog.names[i]} is {assignment[i]!r}, not binary"
              for i in np.flatnonzero((x != 0.0) & (x != 1.0)).tolist()]
    # written so that a NaN lhs or rhs fails; inf * 0 is a NaN, not an error
    with np.errstate(invalid="ignore", over="ignore"):
        lhs = idx.lhs(x)
        ok = np.where(idx.le, lhs <= idx.cap, np.abs(lhs - idx.rhs) <= idx.tol)
    for r in np.flatnonzero(~ok).tolist():
        row = model.constraints[r]
        value = row.lhs(assignment)
        if row.sense == "<=":
            issues.append(f"{row.tag}: {value!r} exceeds {row.rhs!r}")
        else:
            issues.append(f"{row.tag}: {value!r} != {row.rhs!r}")
    return issues


# -- MPS round trip ----------------------------------------------------------


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".columns.json")


def export_mps(model: BilpModel, path: str | Path) -> Path:
    """Write the model as MPS (maximization, all-binary via BV bounds).

    Column and row names are short and opaque; the sidecar
    ``<stem>.columns.json``, one line of JSON with sorted keys, maps them
    back to task/device/slot semantics and carries the objective constant
    and row tags.  Values are printed with 17 significant digits so a
    round trip preserves the optimum.
    """
    path = Path(path)
    cat = model.catalog
    lines: list[str] = ["NAME          EHCALLOC", "OBJSENSE", "    MAXIMIZE", "ROWS",
                        " N  OBJ"]
    row_names = [f"R{i}" for i in range(len(model.constraints))]
    lines += [f" {'L' if row.sense == '<=' else 'E'}  {rn}"
              for rn, row in zip(row_names, model.constraints)]

    # the objective is written as one more row, the first, whose rhs
    # carries the constant's negation
    named = [("OBJ", model.objective, -model.objective_offset)] + [
        (rn, row.coeffs, row.rhs) for rn, row in zip(row_names, model.constraints)]
    # each nonzero becomes its COLUMNS line at once, filed under its column
    heads = [f"    {name:<10}" for name in cat.names]
    by_var: list[list[str]] = [[] for _ in heads]
    for rn, coeffs, _ in named:
        padded = f"{rn:<10}"
        for v, c in coeffs.items():
            if c:
                by_var[v].append(f"{heads[v]}{padded}{c:.17g}")

    lines.append("COLUMNS")
    for entries in by_var:
        lines += entries
    lines.append("RHS")
    lines += [f"    RHS       {rn:<10}{rhs:.17g}" for rn, _, rhs in named if rhs]
    lines.append("BOUNDS")
    lines += [f" BV BND       {name}" for name in cat.names]
    lines += ["ENDATA", ""]                 # "" ends the file with a newline
    path.write_text("\n".join(lines))

    sidecar = {
        "catalog": cat.to_json_dict(),
        "rows": {rn: row.tag for rn, row in zip(row_names, model.constraints)},
        "objective_offset": model.objective_offset,
        "metadata": {k: v for k, v in model.metadata.items()
                     if isinstance(v, (str, int, float, list, tuple, dict, type(None)))},
    }
    # no indent: only then does json use its C encoder
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True) + "\n")
    return path


_MPS_SECTIONS = frozenset({"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS",
                           "ENDATA"})


def read_mps(path: str | Path) -> BilpModel:
    """Rebuild a model from an MPS file and its sidecar ``<stem>.columns.json``.

    The sidecar is required: MPS alone cannot say which columns are
    candidates of which task, and the solver needs that structure.  The
    objective is the one ``N`` row; its sense is ``MAX``/``MAXIMIZE`` or
    ``MIN``/``MINIMIZE``, on the ``OBJSENSE`` line or the next.  What a
    model cannot hold or the file does not declare is refused with
    ``path:lineno:``, not dropped: any other sense, a ``G`` row, a second
    ``N`` row, a row declared twice, a ``RANGES`` entry, any bound other
    than ``BV``, a column the sidecar does not name, an entry on an
    undeclared row, a second entry of a column on one row, a second
    right-hand side of a row, a line whose names and values do not pair
    up, and a value that is not a finite number.  A sidecar that
    ``export_mps`` would not write is refused with its own path: one
    missing a catalog key, whose ``task_order`` names a task twice, whose
    ``var`` is not the entry's position (candidates ``0..n_c-1``, then the
    arcs), or that names a task or arc end not in ``task_order``.
    """
    path = Path(path)
    sidecar_path = _sidecar_path(path)
    if not sidecar_path.exists():
        raise FileNotFoundError(f"missing sidecar {sidecar_path}")
    try:
        sidecar = json.loads(sidecar_path.read_text())
        catalog = VariableCatalog.from_json_dict(sidecar["catalog"])
    except KeyError as exc:
        raise ValueError(f"{sidecar_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar_path}: {exc}") from exc
    var_of = {name: i for i, name in enumerate(catalog.names)}

    section = None
    maximize = True
    obj_name = None
    row_sense: dict[str, str] = {}
    row_coeffs: dict[str, dict[int, float]] = {}
    obj: dict[int, float] = {}
    rhs: dict[str, float] = {}

    def pairs(tokens: list[str], lineno: int) -> list[tuple[str, float]]:
        if len(tokens) % 2 == 0:
            raise ValueError(f"{path}:{lineno}: expected a name and then row/value "
                             f"pairs, got {len(tokens)} fields")
        return [(name, number(text, lineno)) for name, text in zip(tokens[1::2], tokens[2::2])]

    def number(text: str, lineno: int) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not abs(value) < math.inf:
            raise ValueError(f"{path}:{lineno}: value {text!r} is not a finite number")
        return value

    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        tokens = raw.split()
        if section == "COLUMNS":
            if len(tokens) == 3:
                # the line export_mps writes: one entry on a constraint row;
                # no column name is a section name or starts a comment
                v, coeffs = var_of.get(tokens[0]), row_coeffs.get(tokens[1])
                if v is not None and coeffs is not None and v not in coeffs:
                    coeffs[v] = number(tokens[2], lineno)
                    continue
        if not tokens or tokens[0][0] == "*":
            continue
        head = tokens[0]
        if raw[0] not in " \t" and head in _MPS_SECTIONS:
            section = head
            if head != "OBJSENSE" or len(tokens) == 1:
                continue
            head = tokens[1]                    # the sense on the section's line
        if section == "COLUMNS":
            v = var_of.get(head)
            if v is None:
                raise ValueError(f"{path}:{lineno}: unknown column {head!r}")
            for rn, val in pairs(tokens, lineno):
                coeffs = obj if rn == obj_name else row_coeffs.get(rn)
                if coeffs is None:
                    raise ValueError(f"{path}:{lineno}: column {head} on undeclared row {rn!r}")
                if v in coeffs:
                    raise ValueError(f"{path}:{lineno}: column {head} has a second "
                                     f"entry on row {rn!r}")
                coeffs[v] = val
        elif section == "BOUNDS":
            if head != "BV":
                raise ValueError(f"{path}:{lineno}: bound type {head!r}; "
                                 f"only BV bounds are supported")
        elif section == "RHS":
            for rn, val in pairs(tokens, lineno):
                if rn != obj_name and rn not in row_coeffs:
                    raise ValueError(f"{path}:{lineno}: right-hand side of undeclared row {rn!r}")
                if rn in rhs:
                    raise ValueError(f"{path}:{lineno}: row {rn!r} has a second right-hand side")
                rhs[rn] = val
        elif section == "ROWS":
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'type name', got {raw.strip()!r}")
            sense, rn = tokens
            if rn in row_coeffs or rn == obj_name:
                raise ValueError(f"{path}:{lineno}: row {rn!r} declared twice")
            if sense == "N" and obj_name is None:
                obj_name = rn
            elif sense in ("L", "E"):
                row_sense[rn] = "<=" if sense == "L" else "="
                row_coeffs[rn] = {}
            else:
                raise ValueError(f"{path}:{lineno}: row type {sense!r} of {rn}; "
                                 f"only one N row and L and E rows are supported")
        elif section == "OBJSENSE":
            if head.upper() not in ("MAX", "MAXIMIZE", "MIN", "MINIMIZE"):
                raise ValueError(f"{path}:{lineno}: objective sense {head!r}; "
                                 f"expected MAX, MAXIMIZE, MIN or MINIMIZE")
            maximize = head.upper().startswith("MAX")
        elif section == "RANGES":
            raise ValueError(f"{path}:{lineno}: RANGES are not supported")

    tags = sidecar.get("rows", {})
    constraints = [
        LinearConstraint(coeffs, row_sense[rn], rhs.get(rn, 0.0), tags.get(rn, rn))
        for rn, coeffs in row_coeffs.items()
    ]
    offset = -rhs.get(obj_name, 0.0)
    if not maximize:
        obj, offset = {v: -c for v, c in obj.items()}, -offset
    metadata = dict(sidecar.get("metadata", {}))
    metadata["source"] = str(path)
    return BilpModel(catalog, constraints, obj, offset, metadata)


def read_solution(path: str | Path, model: BilpModel) -> list[int]:
    """Read an external solver's ``name value`` lines into an assignment.

    Unlisted variables default to 0.  Values must sit within ``1e-6`` of
    an integer 0 or 1; anything else is an error.
    """
    path = Path(path)
    var_of = {name: i for i, name in enumerate(model.catalog.names)}
    x = [0] * model.catalog.n_vars
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", "*", "//")):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'name value', got {line!r}")
        name, sval = parts
        if name not in var_of:
            raise ValueError(f"{path}:{lineno}: unknown variable {name!r}")
        try:
            val = float(sval)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: value {sval!r} is not a number") from None
        bit = int(abs(val - 1.0) <= 1e-6)
        # written so that inf and nan fail too
        if not abs(val - bit) <= 1e-6:
            raise ValueError(f"{path}:{lineno}: value {val!r} is not binary within 1e-06")
        x[var_of[name]] = bit
    return x
