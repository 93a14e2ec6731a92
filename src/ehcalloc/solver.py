"""Exact solver for the allocation BILP, plus MPS round-trip plumbing.

The built-in solver is a deterministic branch-and-bound over the one
real degree of freedom the model has: which redundancy candidate each
task picks.  The placement and arc variables are implied by that
choice, so the search fixes one task per level and prunes monotone
budget rows incrementally.

The bound is a separable relaxation of a reparametrized objective.
Before the search, a few sweeps of max-sum diffusion (Werner, TPAMI
2007) move mass from each workflow arc's device-pair terms into the
candidates of its endpoint tasks, grouped by primary device.  Every
complete pick keeps its objective, but the relaxation (each open task
takes its best candidate, each open arc its best device pair
consistent with fixed endpoints) gets much tighter.  The leaf values
read the original coefficients in a fixed summation order, so the
objective reported for a pick vector does not depend on the bound.

The search reads its layout from the model's variable catalog: per task
its candidates and its incident workflow arcs, each with the side the
task sits on, and per arc side its arc variables by device pair.  The
diffusion messages, the per-device arc bounds and the lookup of an arc
between two fixed picks all index that one side layout.

Because the bound and the leaf values sum different terms, they are
never compared for equality: a subtree is pruned only when its bound
falls below the incumbent by more than ``1e-9 * max(1, |incumbent|)``.
Near-ties are explored, and a leaf must strictly beat the incumbent to
replace it, so the search returns the lexicographically smallest
candidate-index vector among the optima.

A greedy pass (best locally feasible candidate per task) seeds the
incumbent.  A tree leaf that ties it replaces it, since it comes first
in canonical order.
"""

from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

from .bilp import BilpModel, LinearConstraint, VariableCatalog


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TIME_LIMIT = "time_limit"


@dataclass
class SolverOptions:
    time_limit: float | None = None       # seconds of wall time


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


#: sweeps of max-sum diffusion before each search; on the bundled
#: fixture's 21-point sweep, 20 or 50 sweeps visit as many nodes as 10
DIFFUSION_SWEEPS = 10


def _tol(value: float) -> float:
    return 1e-9 * max(1.0, abs(value))


class _TaskChoiceSearch:
    """Branch-and-bound state; one instance per solve."""

    def __init__(self, model: BilpModel, options: SolverOptions) -> None:
        self.model = model
        self.cat = cat = model.catalog
        self.obj = obj = model.objective
        rows, self.budget = model.budget

        self.n_tasks = len(cat.task_order)
        self.row_cap = [row.rhs + _tol(row.rhs) for row in rows]

        # per-task candidate records: static objective of the candidate and
        # its placement, plus their folded budget rows; "robj" is the
        # reparametrized objective the bounds read
        self.cand_records: list[list[dict]] = []
        for t, positions in zip(cat.task_order, cat.options):
            if not positions:
                raise ValueError(f"task {t} has no candidates")
            self.cand_records.append([{
                "pos": pos,
                "primary": cat.candidates[i].primary,
                "obj": obj.get(cat.candidates[i].var, 0.0) + obj.get(cat.placement[i], 0.0),
                "rows": self.budget[cat.candidates[i].var],
            } for pos, i in enumerate(positions)])

        # mutable search state; the bounds are set by _reparametrize
        self.fixed_dev: list[str | None] = [None] * self.n_tasks
        self.chosen_pos: list[int] = [-1] * self.n_tasks
        self.usage = [0.0] * len(rows)
        self.partial = 0.0
        self.rpartial = 0.0
        self.best_g = -math.inf
        self.best_vec: tuple[int, ...] | None = None
        # an incumbent is canonical once it was reached in DFS order; a
        # leaf tying a non-canonical (greedy) incumbent replaces it
        self.best_canonical = False
        self.max_pruned = -math.inf
        self.nodes = 0
        self.deadline = (time.perf_counter() + options.time_limit
                         if options.time_limit is not None else None)

    def _reparametrize(self) -> None:
        """Max-sum diffusion, then the separable bounds of its result.

        A message moves objective mass from one side of a workflow arc
        into the candidates of that side's task on one primary device:
        they gain it, and the arc's device pairs through that device lose
        it.  A complete pick gains on its candidates exactly what it
        loses on its arcs, so its objective is unchanged.  Each sweep
        visits every (task, primary device) group with arcs, in task
        order, and sets its messages so that the group's best candidate
        and its best device pair on each incident arc score the same.
        Every sweep leaves a valid reparametrization, so diffusion simply
        stops early when the deadline passes.
        """
        cat, obj = self.cat, self.obj
        # msgs[p][s][dev]: mass moved from arc p into its side-s task on
        # device dev, laid out like cat.ends
        msgs = [tuple({dev: 0.0 for dev in end} for end in ends) for ends in cat.ends]
        groups: list[tuple[str, float, list[tuple[dict, dict, list]]]] = []
        for depth, records in enumerate(self.cand_records):
            best: dict[str, float] = {}
            for rec in records:
                best[rec["primary"]] = max(best.get(rec["primary"], -math.inf), rec["obj"])
            for dev, base in best.items():
                incident = []
                for p, s, _ in cat.incident[depth]:
                    # the other side's device and the pair's objective
                    terms = [(o, obj.get(var, 0.0))
                             for o, var in cat.ends[p][s].get(dev, {}).items()]
                    incident.append((msgs[p][s], msgs[p][1 - s], terms))
                # a group with no device pair on some arc can never be picked
                if incident and all(terms for _, _, terms in incident):
                    groups.append((dev, base, incident))

        for _ in range(DIFFUSION_SWEEPS):
            if self.deadline is not None and time.perf_counter() > self.deadline:
                break
            for dev, base, incident in groups:
                marginals = [max(val - other[o] for o, val in terms) - mine[dev]
                             for mine, other, terms in incident]
                u = base + sum(mine[dev] for mine, _, _ in incident)
                avg = (u + sum(marginals)) / (1 + len(marginals))
                for (mine, _, _), m in zip(incident, marginals):
                    mine[dev] += m - avg

        for incident, records in zip(cat.incident, self.cand_records):
            for rec in records:
                rec["robj"] = rec["obj"] + sum(
                    msgs[p][s].get(rec["primary"], 0.0) for p, s, _ in incident)
        self.task_max = [max(r["robj"] for r in records) for records in self.cand_records]
        # per arc variable, its reparametrized objective; per arc side and
        # device, the best of them
        self.robj: dict[int, float] = {}
        self.arc_max: list[tuple[dict[str, float], dict[str, float]]] = []
        for (src, dst), (m_src, m_dst) in zip(cat.ends, msgs):
            for k, row in src.items():
                for l, var in row.items():
                    self.robj[var] = obj.get(var, 0.0) - m_src[k] - m_dst[l]
            self.arc_max.append(tuple(
                {dev: max(self.robj[var] for var in row.values()) for dev, row in end.items()}
                for end in (src, dst)))
        self.arc_bound = [max(by_src.values(), default=-math.inf)
                          for by_src, _ in self.arc_max]
        self.future = sum(self.task_max) + sum(self.arc_bound)

    # -- incremental choice application -------------------------------------

    def _apply(self, depth: int, rec: dict) -> tuple | None:
        """Fix task ``depth`` to candidate ``rec``; returns an undo token,
        or None (after self-undoing) if the partial choice is infeasible."""
        # checked from the first node on, so a deadline that passed during
        # diffusion stops the search at once
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.perf_counter() > self.deadline:
                raise _TimeUp
        self.nodes += 1
        old_partial = self.partial
        old_rpartial = self.rpartial
        old_future = self.future
        touched_rows: list[tuple[int, float]] = []
        touched_arcs: list[tuple[int, float]] = []

        feasible = True
        for rpos, coeff in rec["rows"]:
            touched_rows.append((rpos, self.usage[rpos]))
            self.usage[rpos] += coeff
            if self.usage[rpos] > self.row_cap[rpos]:
                feasible = False
        self.partial += rec["obj"]
        self.rpartial += rec["robj"]
        self.future -= self.task_max[depth]
        self.fixed_dev[depth] = rec["primary"]
        self.chosen_pos[depth] = rec["pos"]

        if feasible:
            dev = rec["primary"]
            for p, s, other in self.cat.incident[depth]:
                touched_arcs.append((p, self.arc_bound[p]))
                if self.fixed_dev[other] is None:
                    newb = self.arc_max[p][s].get(dev, -math.inf)
                    self.future += newb - self.arc_bound[p]
                    self.arc_bound[p] = newb
                    if newb == -math.inf:
                        feasible = False
                        break
                    continue
                self.future -= self.arc_bound[p]
                self.arc_bound[p] = 0.0
                var = self.cat.ends[p][s].get(dev, {}).get(self.fixed_dev[other])
                if var is None:
                    feasible = False
                    break
                self.partial += self.obj.get(var, 0.0)
                self.rpartial += self.robj[var]
                for rpos, coeff in self.budget[var]:
                    touched_rows.append((rpos, self.usage[rpos]))
                    self.usage[rpos] += coeff
                    if self.usage[rpos] > self.row_cap[rpos]:
                        feasible = False
                if not feasible:
                    break

        token = (depth, old_partial, old_rpartial, old_future, touched_rows, touched_arcs)
        if not feasible:
            self._undo(token)
            return None
        return token

    def _undo(self, token: tuple) -> None:
        depth, old_partial, old_rpartial, old_future, touched_rows, touched_arcs = token
        # restore saved values exactly; no float drift across siblings
        self.partial = old_partial
        self.rpartial = old_rpartial
        self.future = old_future
        for rpos, old in reversed(touched_rows):
            self.usage[rpos] = old
        for p, old in reversed(touched_arcs):
            self.arc_bound[p] = old
        self.fixed_dev[depth] = None
        self.chosen_pos[depth] = -1

    # -- search --------------------------------------------------------------

    def _greedy(self) -> None:
        """Seed the incumbent with a one-pass greedy assignment.

        At each task, the applied candidate is the one whose committed
        objective (own terms plus arcs to already-fixed neighbours) is
        largest and feasible so far.  Purely a warm start: the result is
        recorded as non-canonical so tie-breaking is unaffected.
        """
        tokens: list[tuple] = []
        for depth in range(self.n_tasks):
            best: tuple[float, dict] | None = None
            for rec in self.cand_records[depth]:
                token = self._apply(depth, rec)
                if token is None:
                    continue
                score = self.partial
                self._undo(token)
                if best is None or score > best[0]:
                    best = (score, rec)
            if best is None:
                break
            tokens.append(self._apply(depth, best[1]))
        else:
            self.best_g = self.partial + self.model.objective_offset
            self.best_vec = tuple(self.chosen_pos)
            self.best_canonical = False
        for token in reversed(tokens):
            self._undo(token)

    def _accept_leaf(self) -> None:
        # leaves are reached in lexicographic candidate order, so requiring a
        # strict improvement keeps the lex-smallest vector among equal optima;
        # a non-canonical (greedy) incumbent may be replaced by a tying leaf
        g = self.partial + self.model.objective_offset
        if g > self.best_g or (g == self.best_g and not self.best_canonical):
            self.best_g = g
            self.best_vec = tuple(self.chosen_pos)
            self.best_canonical = True

    def _dfs(self, depth: int, parent_bound: float = math.inf) -> None:
        if depth == self.n_tasks:
            self._accept_leaf()
            return
        for rec in self.cand_records[depth]:
            token = self._apply(depth, rec)
            if token is None:
                continue
            bound = self.rpartial + self.future + self.model.objective_offset
            if bound > parent_bound + _tol(parent_bound):
                raise RuntimeError("relaxation bound increased down the tree")
            # the bound and the leaf values sum different terms, so only a
            # clear miss is pruned; near-ties are explored, never dropped
            if bound < self.best_g - _tol(self.best_g):
                self.max_pruned = max(self.max_pruned, bound)
            else:
                self._dfs(depth + 1, bound)
            self._undo(token)

    def run(self) -> Solution:
        t0 = time.perf_counter()
        self._reparametrize()
        root_bound = self.rpartial + self.future + self.model.objective_offset
        status = SolverStatus.OPTIMAL
        try:
            self._greedy()
            self._dfs(0)
        except _TimeUp:
            status = SolverStatus.TIME_LIMIT

        wall = time.perf_counter() - t0
        if self.best_vec is None:
            final = (SolverStatus.INFEASIBLE if status is SolverStatus.OPTIMAL
                     else SolverStatus.TIME_LIMIT)
            return Solution(final, None, None,
                            bound=root_bound if final is SolverStatus.TIME_LIMIT else None,
                            nodes=self.nodes, wall_time=wall)
        if status is SolverStatus.TIME_LIMIT:
            bound = root_bound
        else:
            bound = max(self.best_g, self.max_pruned)
        picks = [positions[pos] for positions, pos in zip(self.cat.options, self.best_vec)]
        return Solution(status, self.best_g, self.cat.vector(picks),
                        bound=bound, nodes=self.nodes, wall_time=wall,
                        choices=list(self.best_vec))


def solve_builtin(model: BilpModel, options: SolverOptions | None = None) -> Solution:
    """Solve to proven optimality.

    The final incumbent is re-checked against every constraint row; a
    violation means the model does not have the task-choice structure
    this solver relies on, and is reported as an error rather than a
    wrong answer.
    """
    opts = options or SolverOptions()
    search = _TaskChoiceSearch(model, opts)
    sol = search.run()
    if sol.assignment is not None:
        bad = verify(model, sol.assignment)
        if bad:
            raise ValueError("solution violates model rows: " + "; ".join(bad[:5]))
    return sol


def verify(model: BilpModel, assignment: list[int], tol: float = 1e-9) -> list[str]:
    """Check an assignment against every row; returns violation messages."""
    issues: list[str] = []
    for i, v in enumerate(assignment):
        if v not in (0, 1):
            issues.append(f"variable {model.catalog.names[i]} is {v!r}, not binary")
    for row in model.constraints:
        lhs = row.lhs(assignment)
        scaled = tol * max(1.0, abs(row.rhs))
        if row.sense == "<=":
            if lhs > row.rhs + scaled:
                issues.append(f"{row.tag}: {lhs!r} exceeds {row.rhs!r}")
        elif abs(lhs - row.rhs) > scaled:
            issues.append(f"{row.tag}: {lhs!r} != {row.rhs!r}")
    return issues


# -- MPS round trip ----------------------------------------------------------


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.stem + ".columns.json")


def export_mps(model: BilpModel, path: str | Path, name: str = "EHCALLOC") -> Path:
    """Write the model as MPS (maximization, all-binary via BV bounds).

    Column and row names are short and opaque; the sidecar
    ``<stem>.columns.json`` maps them back to task/device/slot semantics
    and carries the objective constant and row tags.  Values are printed
    with 17 significant digits so a round trip preserves the optimum.
    """
    path = Path(path)
    cat = model.catalog
    lines: list[str] = [f"NAME          {name}", "OBJSENSE", "    MAXIMIZE", "ROWS",
                        " N  OBJ"]
    row_names: list[str] = []
    for i, row in enumerate(model.constraints):
        rn = f"R{i}"
        row_names.append(rn)
        sense = "L" if row.sense == "<=" else ("E" if row.sense == "=" else "G")
        lines.append(f" {sense}  {rn}")

    by_var: list[list[tuple[str, float]]] = [[] for _ in range(cat.n_vars)]
    for v, c in model.objective.items():
        if c:
            by_var[v].append(("OBJ", c))
    for rn, row in zip(row_names, model.constraints):
        for v, c in row.coeffs.items():
            if c:
                by_var[v].append((rn, c))

    lines.append("COLUMNS")
    for v in range(cat.n_vars):
        col = cat.names[v]
        for rn, c in by_var[v]:
            lines.append(f"    {col:<10}{rn:<10}{c:.17g}")
    lines.append("RHS")
    if model.objective_offset:
        lines.append(f"    RHS       OBJ       {-model.objective_offset:.17g}")
    for rn, row in zip(row_names, model.constraints):
        if row.rhs:
            lines.append(f"    RHS       {rn:<10}{row.rhs:.17g}")
    lines.append("BOUNDS")
    for v in range(cat.n_vars):
        lines.append(f" BV BND       {cat.names[v]}")
    lines.append("ENDATA")
    path.write_text("\n".join(lines) + "\n")

    sidecar = {
        "catalog": cat.to_json_dict(),
        "rows": {rn: row.tag for rn, row in zip(row_names, model.constraints)},
        "objective_offset": model.objective_offset,
        "metadata": {k: v for k, v in model.metadata.items()
                     if isinstance(v, (str, int, float, list, tuple, dict, type(None)))},
    }
    _sidecar_path(path).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return path


def read_mps(path: str | Path, sidecar_path: str | Path | None = None) -> BilpModel:
    """Rebuild a model from an MPS file and its sidecar.

    The sidecar is required: MPS alone cannot say which columns are
    candidates of which task, and the solver needs that structure.
    """
    path = Path(path)
    sidecar_path = Path(sidecar_path) if sidecar_path else _sidecar_path(path)
    if not sidecar_path.exists():
        raise FileNotFoundError(f"missing sidecar {sidecar_path}")
    sidecar = json.loads(sidecar_path.read_text())
    catalog = VariableCatalog.from_json_dict(sidecar["catalog"])
    var_of = {name: i for i, name in enumerate(catalog.names)}

    section = None
    maximize = True
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_coeffs: dict[str, dict[int, float]] = {}
    obj: dict[int, float] = {}
    rhs: dict[str, float] = {}
    obj_rhs = 0.0

    for raw in path.read_text().splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if raw[0] not in " \t":
            head = raw.split()[0]
            if head in {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES",
                        "BOUNDS", "ENDATA"}:
                section = head
                continue
        tokens = raw.split()
        if section == "OBJSENSE":
            maximize = tokens[0].upper() == "MAXIMIZE"
        elif section == "ROWS":
            sense, rn = tokens
            if sense == "N":
                continue
            row_sense[rn] = {"L": "<=", "E": "=", "G": ">="}[sense]
            row_order.append(rn)
            row_coeffs[rn] = {}
        elif section == "COLUMNS":
            col = tokens[0]
            if col not in var_of:
                raise ValueError(f"unknown column {col!r} in {path}")
            v = var_of[col]
            for rn, val in zip(tokens[1::2], tokens[2::2]):
                if rn == "OBJ":
                    obj[v] = float(val)
                else:
                    row_coeffs[rn][v] = float(val)
        elif section == "RHS":
            for rn, val in zip(tokens[1::2], tokens[2::2]):
                if rn == "OBJ":
                    obj_rhs = float(val)
                else:
                    rhs[rn] = float(val)

    tags = sidecar.get("rows", {})
    constraints = [
        LinearConstraint(row_coeffs[rn], row_sense[rn], rhs.get(rn, 0.0),
                         tags.get(rn, rn))
        for rn in row_order
    ]
    offset = -obj_rhs
    if not maximize:
        obj = {v: -c for v, c in obj.items()}
        offset = -offset
    metadata = dict(sidecar.get("metadata", {}))
    metadata["source"] = str(path)
    return BilpModel(catalog, constraints, obj, offset, metadata)


def read_solution(path: str | Path, model: BilpModel,
                  tol: float = 1e-6) -> list[int]:
    """Read an external solver's ``name value`` lines into an assignment.

    Unlisted variables default to 0.  Values must sit within ``tol`` of
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
        val = float(sval)
        nearest = round(val)
        if nearest not in (0, 1) or abs(val - nearest) > tol:
            raise ValueError(f"{path}:{lineno}: value {val!r} is not binary within {tol}")
        x[var_of[name]] = int(nearest)
    return x
