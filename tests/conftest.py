"""Shared fixtures: reference system, bundled workflow, instance factories."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import ehcalloc as e
import ehcalloc.synthgen as sg
from ehcalloc.model import Device, Topology


@pytest.fixture(scope="session")
def topology() -> Topology:
    return e.reference_topology()


@pytest.fixture(scope="session")
def workflow():
    return e.inspection_workflow()


@pytest.fixture(scope="session")
def policy():
    return e.default_policy()


def tightened_topology(base: Topology, rng: np.random.Generator) -> Topology:
    """Reference system with edge/hub budgets shrunk enough to bind on
    small instances; the cloud keeps its slack so nothing goes infeasible."""
    devs = []
    for d in base.devices:
        kw = dataclasses.asdict(d)
        if d.id == "e":
            kw["energy_budget"] = float(rng.uniform(15.0, 120.0))
            kw["memory_budget"] = float(rng.uniform(8e6, 5e7))
        elif d.id == "h":
            kw["energy_budget"] = float(rng.uniform(40.0, 700.0))
            kw["memory_budget"] = float(rng.uniform(1.2e7, 7e7))
            kw["storage_budget"] = float(rng.uniform(1.2e8, 9e8))
        devs.append(Device(**kw))
    return Topology(devs, list(base.channels.values()), dict(base.relays))


# fewer triple-execution draws keeps 5-6 task instances enumerable
LIGHT_TARGETS = ((70.0, 25.0, 5.0),) * 3

STRUCTURES = ("serial", "parallel", "mixed")


def small_instance(base: Topology, seed: int):
    """Deterministic small instance for solver-vs-oracle comparisons.

    Cycles task counts 2-6, all three structures, all three criticality
    levels; odd seeds get tightened edge/hub budgets.
    """
    n_tasks = 2 + seed % 5
    rng = np.random.default_rng(10_000 + seed)
    topo = tightened_topology(base, rng) if seed % 2 else base
    spec = sg.GenSpec(
        task_count=n_tasks,
        structure=STRUCTURES[seed % 3],
        seed=seed,
        mode_targets=LIGHT_TARGETS if n_tasks >= 5 else sg.DEFAULT_MODE_TARGETS,
    )
    graph = sg.generate(spec, tuple(base.devices))
    level = 1 + seed % 3
    return topo, graph, e.default_policy(level)


def scipy_milp(model, relax=False):
    """Maximize a model with HiGHS through ``scipy.optimize.milp``.

    Returns ``(status, optimum)``; status 0 means solved to optimality.
    ``relax=True`` drops integrality and returns the LP bound instead.
    Raises ImportError when scipy is not installed.
    """
    from scipy import optimize, sparse

    n = model.catalog.n_vars
    c = np.zeros(n)
    for v, coef in model.objective.items():
        c[v] = -coef                       # scipy minimizes
    rows = sparse.lil_matrix((len(model.constraints), n))
    lo, hi = [], []
    for i, con in enumerate(model.constraints):
        for v, coef in con.coeffs.items():
            rows[i, v] = coef
        lo.append(-np.inf if con.sense == "<=" else con.rhs)
        hi.append(con.rhs)
    res = optimize.milp(
        c=c, constraints=optimize.LinearConstraint(rows.tocsr(), lo, hi),
        integrality=np.zeros(n) if relax else np.ones(n), bounds=optimize.Bounds(0, 1))
    optimum = None if res.fun is None else -res.fun + model.objective_offset
    return res.status, optimum
