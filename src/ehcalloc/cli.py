"""Command line interface.

Subcommands: generate, solve, sweep, baseline, validate, export-mps.
Exit codes: 0 success/optimal, 1 usage error, invalid input or failed
validation, 2 infeasible, 3 time limit hit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import fixtures, io, oracle, pipeline, synthgen
from .bilp import (
    InfeasibleError,
    TimeLimitError,
    NormalizationBounds,
    ObjectiveWeights,
    model_stats,
    normalization_bounds,
    single_objective,
    weighted_objective,
)
from .solver import SolverOptions, export_mps, solve_builtin, verify

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_TIME_LIMIT = 3

_STATUS_EXIT = {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE,
                "time_limit": EXIT_TIME_LIMIT}


def _load_inputs(args):
    topology = io.load_system(args.system) if args.system else fixtures.reference_topology()
    graph = io.load_workflow(args.workflow) if args.workflow else fixtures.inspection_workflow()
    scenario = (io.load_scenario(args.scenario) if args.scenario
                else io.Scenario(fixtures.default_policy(),
                                 ObjectiveWeights(0.5, 0.5), SolverOptions()))
    if getattr(args, "w_rel", None) is not None:
        scenario.weights = ObjectiveWeights(args.w_rel, 1.0 - args.w_rel)
    if getattr(args, "time_limit", None) is not None:
        # a fresh options object, so that its checks run on the flag's value
        scenario.solver = SolverOptions(time_limit=args.time_limit)
    return topology, graph, scenario


def _plan_table(plan: pipeline.AllocationPlan) -> str:
    lines = [
        f"status       {plan.status}",
        f"weights      w_rel={plan.w_rel}  w_lat={plan.w_lat}",
        f"objective    g={plan.g}",
        f"reliability  {plan.reliability}  (log {plan.f_rel})",
        f"latency      {plan.f_lat} s",
        f"solver       {plan.solver_nodes} nodes in {plan.wall_time_s:.3f} s",
        "",
        f"{'task':<8}{'mode':<6}{'primary':<9}{'replicas':<12}"
        f"{'latency_s':>14}{'reliability':>14}",
    ]
    for t in plan.tasks:
        lines.append(f"{t['task']:<8}{t['mode']:<6}{t['primary']:<9}"
                     f"{','.join(t['replicas']):<12}"
                     f"{t['latency_s']:>14.6f}{t['reliability']:>14.9f}")
    lines.append("")
    lines.append(f"{'device':<8}{'memory':>24}{'storage':>26}{'energy':>26}")
    for d in plan.devices:
        eb = d["energy_budget_j"]
        energy = f"{d['energy_j']:.1f} / {'unbounded' if eb is None else f'{eb:.1f} J'}"
        lines.append(
            f"{d['device']:<8}"
            f"{_mib(d['memory_bytes'])} / {_mib(d['memory_budget_bytes']):>10}"
            f"{_mib(d['storage_bytes'])} / {_mib(d['storage_budget_bytes']):>10}"
            f"{energy:>26}")
    return "\n".join(lines)


def _mib(nbytes: float) -> str:
    return f"{nbytes / 2**20:>9.1f} MiB"


def cmd_generate(args) -> int:
    topology = io.load_system(args.system) if args.system else fixtures.reference_topology()
    if len(topology.devices) != 3:
        raise io.ConfigError("generate expects a three-device (edge, hub, cloud) system")
    spec = synthgen.GenSpec(
        task_count=args.tasks,
        structure=args.structure,
        max_in_degree=args.max_in,
        max_out_degree=args.max_out,
        seed=args.seed,
        fixed_edge_pct=args.fixed_edge_pct,
        fixed_hub_pct=args.fixed_hub_pct,
    )
    graph = synthgen.generate(spec, tuple(topology.devices))
    io.dump_workflow(graph, args.out)
    print(f"generated {len(graph.tasks)} tasks, {len(graph.arcs)} arcs "
          f"({args.structure}, seed {args.seed}) -> {args.out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    topology, graph, scenario = _load_inputs(args)
    plan, _ = pipeline.solve_allocation(
        topology, graph, scenario.policy, scenario.weights, scenario.solver)
    text = json.dumps(plan.to_json_dict(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(_plan_table(plan))
        print(f"\nplan -> {args.out}")
    else:
        sys.stdout.write(text)
        print(_plan_table(plan), file=sys.stderr)
    return _STATUS_EXIT[plan.status]


def cmd_sweep(args) -> int:
    topology, graph, scenario = _load_inputs(args)
    # written so that NaN fails the check
    if not 0 < args.step <= 1:
        raise io.ConfigError("--step must lie in (0, 1]")
    steps = round(1.0 / args.step)
    if abs(steps * args.step - 1.0) > 1e-9:
        raise io.ConfigError("--step must divide 1 evenly")
    result = pipeline.sweep(topology, graph, scenario.policy, steps, scenario.solver)
    out = Path(args.out)
    out.write_text(result.to_csv())
    json_out = out.with_suffix(".json")
    json_out.write_text(json.dumps(result.to_json_dict(), indent=2) + "\n")
    print(f"swept {len(result.rows)} weight points -> {out}, {json_out}")
    bad = [r["status"] for r in result.rows if r["status"] != "optimal"]
    return EXIT_OK if not bad else _STATUS_EXIT.get(bad[0], EXIT_INFEASIBLE)


def cmd_baseline(args) -> int:
    topology, graph, scenario = _load_inputs(args)
    result = pipeline.baselines(topology, graph, scenario.policy,
                                scenario.weights, scenario.solver)
    data = {
        "unrestricted": result["unrestricted"].to_json_dict(),
        "baselines": {d: p.to_json_dict() for d, p in result["baselines"].items()},
    }
    text = json.dumps(data, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    un = result["unrestricted"]
    print(f"unrestricted: g={un.g} reliability={un.reliability} latency={un.f_lat} s",
          file=sys.stderr)
    for dev, p in result["baselines"].items():
        if p.status == "optimal":
            print(f"all-on-{dev}: g={p.g} reliability={p.reliability} "
                  f"latency={p.f_lat} s", file=sys.stderr)
        else:
            print(f"all-on-{dev}: {p.status}", file=sys.stderr)
    return _STATUS_EXIT[un.status]


def _agrees(fresh: float, stored, abs_tol: float = 1e-9) -> bool:
    """Whether ``stored`` is a real number close to ``fresh``."""
    return (isinstance(stored, (int, float)) and not isinstance(stored, bool)
            and math.isclose(fresh, stored, rel_tol=1e-9, abs_tol=abs_tol))


def cmd_validate(args) -> int:
    topology, graph, scenario = _load_inputs(args)
    try:
        plan = json.loads(Path(args.plan).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise io.ConfigError(f"cannot read plan {args.plan}: {exc}") from exc
    try:
        # the plan is judged at the weights it was solved for
        weights = ObjectiveWeights(plan["weights"]["w_rel"], plan["weights"]["w_lat"])
    except (KeyError, TypeError, ValueError) as exc:
        raise io.ConfigError(f"plan {args.plan} has no valid weights: {exc!r}") from exc
    tasks, objective = plan.get("tasks", []), plan.get("objective", {})
    if not isinstance(tasks, list) or not all(isinstance(entry, dict) for entry in tasks):
        print("FAIL plan tasks are not a list of objects")
        return EXIT_BAD_INPUT
    if not isinstance(objective, dict):
        print("FAIL plan objective is not an object")
        return EXIT_BAD_INPUT

    reg, model = pipeline.prepare(topology, graph, scenario.policy)
    key_to_idx = {c.key: i for i, c in enumerate(reg.candidates)}
    problems: list[str] = []

    def report(agree: bool, check: str) -> None:
        print(f"{'ok  ' if agree else 'FAIL'} {check}")
        if not agree:
            problems.append(check)

    picks: list[int] = []
    for entry in tasks:
        key = entry.get("candidate")
        if isinstance(key, str) and key in key_to_idx:
            picks.append(key_to_idx[key])
        else:
            report(False, f"unknown candidate {key!r}")
    if problems:
        return EXIT_BAD_INPUT
    if len(picks) != len(graph.tasks):
        print(f"FAIL plan covers {len(picks)} of {len(graph.tasks)} tasks")
        return EXIT_BAD_INPUT

    issues = verify(model, pipeline.assignment_from_picks(reg, model, picks))
    report(not issues, f"constraint check ({len(model.constraints)} rows)")
    for msg in issues:
        print(f"  {msg}")

    f_rel, f_lat = oracle.raw_objectives(reg, [reg.candidates[i] for i in picks])
    for name, fresh, key in (("f_rel", f_rel, "f_rel"), ("f_lat", f_lat, "f_lat_s")):
        old = objective.get(key)
        report(_agrees(fresh, old), f"{name} recomputed {fresh!r} vs stored {old!r}")

    freq, stderr = oracle.monte_carlo_reliability(reg, picks, args.samples, args.seed)
    expected = math.exp(f_rel)
    margin = 3.0 * stderr
    report(abs(freq - expected) <= max(margin, 1e-12),
           f"simulated reliability {freq} vs {expected} (+/- {margin}, {args.samples} samples)")

    space = oracle.space_size(reg)
    if space <= args.brute_limit:
        # enumerated once, so that a wrong normalization solve shows
        points = list(oracle.feasible_points(reg, guard=args.brute_limit))
        bounds = oracle.oracle_bounds(reg, points=points)
        fresh, stored = bounds.to_json_dict(), plan.get("bounds")
        report(isinstance(stored, dict)
               and all(_agrees(v, stored.get(k), abs_tol=0.0) for k, v in fresh.items()),
               f"enumerated bounds {fresh} vs stored {stored}")
        result = oracle.brute_force(reg, weights, bounds, points=points)
        g = objective.get("g")
        report(result.status == "optimal" and _agrees(result.objective, g),
               f"exhaustive optimum {result.objective!r} vs plan g {g!r}")
    else:
        print(f"skip exhaustive check ({space} assignments > {args.brute_limit})")

    return EXIT_OK if not problems else EXIT_BAD_INPUT


def cmd_export_mps(args) -> int:
    topology, graph, scenario = _load_inputs(args)
    reg, model = pipeline.prepare(topology, graph, scenario.policy)
    kind = args.objective
    if kind == "weighted":
        if args.bounds:
            try:
                raw = json.loads(Path(args.bounds).read_text())
                bounds = NormalizationBounds(
                    rel_min=raw["rel_min"], rel_max=raw["rel_max"],
                    lat_min=raw["lat_min"], lat_max=raw["lat_max"])
            except (OSError, KeyError, TypeError, ValueError) as exc:
                raise io.ConfigError(f"cannot read bounds {args.bounds}: {exc}") from exc
        else:
            bounds = normalization_bounds(reg, model, scenario.solver)
        target = weighted_objective(reg, model, scenario.weights, bounds)
    else:
        # auxiliary objectives for computing normalization bounds externally
        target = single_objective(reg, model, kind)
    written = export_mps(target, args.out)
    stats = model_stats(target)
    sidecar = written.with_name(written.stem + ".columns.json")
    print(f"wrote {written} (+ {sidecar.name}): objective {kind}, "
          f"{stats['variables']['total']} variables, "
          f"{stats['constraints']['total']} constraints")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehcalloc",
        description="Reliability/latency-aware task allocation for "
                    "edge-hub-cloud workflows with time redundancy.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--system", help="system JSON (default: bundled reference topology)")
        p.add_argument("--workflow", help="workflow JSON (default: bundled inspection pipeline)")
        p.add_argument("--scenario", help="scenario JSON (criticality, weights, solver)")

    p = sub.add_parser("generate", help="generate a synthetic workflow")
    p.add_argument("--system")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--structure", choices=("serial", "parallel", "mixed"), default="mixed")
    p.add_argument("--max-in", type=int, default=3)
    p.add_argument("--max-out", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixed-edge-pct", type=float, default=0.0)
    p.add_argument("--fixed-hub-pct", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve one weight vector")
    common(p)
    p.add_argument("--w-rel", type=float)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="solve across the weight grid")
    common(p)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="compare against single-device restrictions")
    common(p)
    p.add_argument("--w-rel", type=float)
    p.add_argument("--time-limit", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("validate", help="check a plan against the model and simulation")
    common(p)
    p.add_argument("--plan", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--brute-limit", type=int, default=200_000)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("export-mps", help="write a model as MPS + sidecar")
    common(p)
    p.add_argument("--w-rel", type=float)
    p.add_argument("--objective", default="weighted",
                   choices=("weighted", "rel-max", "rel-min", "lat-max", "lat-min"),
                   help="weighted needs bounds (given or solved); the rest "
                        "export one normalization objective for external solving")
    p.add_argument("--bounds", help="JSON file with rel_min/rel_max/lat_min/lat_max")
    p.add_argument("--time-limit", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_mps)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and the error; its status 2 for
        # a usage error would read as proven infeasible here
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except io.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TimeLimitError as exc:
        print(f"time limit: {exc}", file=sys.stderr)
        return EXIT_TIME_LIMIT
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
