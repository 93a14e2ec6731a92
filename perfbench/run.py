"""Planner benchmark: times ehcalloc end to end and, traced, layer by layer.

    python3 perfbench/run.py --workload fixture-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, one caller, no threads or worker pools.  Set-up (import,
input generation, validation) is repeated ``SETUP_REPS`` times and
timed; then passes over the workload's operations repeat for at most
``--seconds``: an operation that would, at the pace of its last run,
end past that time is not started, so the last pass may be partial.
Every result is checked against
``refs.json``.  Human-readable lines go first; the last line of standard
output is the JSON result.  ``--trace 1`` alternates traced and
untraced passes, reports the per-layer metrics of the traced ones and
writes every span to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads
from workloads import Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mib": "MiB",
                    "proven_n_max": "count", "ok_frac": "ratio"}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ehcalloc; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CLASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest instances of each workload (smoke test)")
    ap.add_argument("--refs", type=Path, default=HERE / "refs.json",
                    help="reference answers to check against")
    return ap.parse_args(argv)


def import_program():
    """ehcalloc from this checkout's src/, or None if it is not there."""
    src = ROOT / "src"
    if not (src / "ehcalloc" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    names = ("model", "fixtures", "synthgen", "transform", "bilp", "solver", "pipeline")
    return SimpleNamespace(**{n: importlib.import_module(f"ehcalloc.{n}") for n in names})


def import_seconds() -> float:
    """Import time of ehcalloc in a fresh interpreter, measured inside it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(args, wl) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": scipy_version,
        "commit": git_commit(),
        "workload": wl.name,
        "why": next((w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())
                     ["workloads"] if w["name"] == wl.name), None),
        "params": wl.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "trace": args.trace,
        "rung_budget_s": workloads.RUNG_BUDGET_S,
        "setup_reps": SETUP_REPS,
    }


def run_pass(wl, lib, pace: dict[str, float], stop_at: float | None) -> dict | None:
    """One pass over the workload's operations; times the calls, then checks.

    ``pace`` holds each operation's last time and is updated.  With
    ``stop_at``, the pass ends early before an operation that would, at
    that pace, end after it; None if no operation ran.
    """
    ops = wl.ops()
    wall = 0.0
    outcomes: list[tuple[int, Outcome]] = []
    times: list[float] = []
    errors: list[str] = []
    for op in ops:
        if stop_at is not None and time.perf_counter() + pace.get(op.label, 0.0) > stop_at:
            break
        t0 = time.perf_counter()
        try:
            result, raised = op.run(), None
        except Exception as exc:   # a raising operation is a counted failure
            result, raised = None, exc
        took = time.perf_counter() - t0
        pace[op.label] = took
        wall += took
        times.append(took)
        try:
            if raised is not None:
                raise raised
            op.check(result)
            outcome = Outcome.OK
            if op.budget_s is not None and took > op.budget_s:
                outcome = Outcome.UNPROVEN
        except lib.bilp.TimeLimitError as exc:
            if op.budget_s is None:
                outcome = Outcome.FAILED
                errors.append(f"{op.label}: {exc!r}")
            else:
                outcome = Outcome.UNPROVEN
        except Exception as exc:
            outcome = Outcome.FAILED
            errors.append(f"{op.label}: {exc!r}")
        outcomes.append((op.n_tasks, outcome))
    if not outcomes:
        return None
    complete = len(outcomes) == len(ops)
    ops = ops[:len(outcomes)]
    sizes = sorted({n for n, _ in outcomes})
    proven = 0
    for n in sizes:
        if any(o is not Outcome.OK for m, o in outcomes if m <= n):
            break
        proven = n
    return {
        "complete": complete,
        "wall_s": wall,
        "attempted": len(outcomes),
        "failed": sum(o is Outcome.FAILED for _, o in outcomes),
        "ok_frac": sum(o is Outcome.OK for _, o in outcomes) / len(outcomes),
        "proven_n_max": proven,
        "outcomes": {op.label: f"{o.value} {took:.4f} s"
                     for op, (_, o), took in zip(ops, outcomes, times)},
        "times": {op.label: took for op, took in zip(ops, times)},
        "errors": errors,
    }


def pass_seconds(passes: list[dict]) -> float:
    """Time of one pass: the sum over its operations of each one's median.

    Each operation's median is taken over every run of it, partial
    passes included, so a slow spell of the host in one pass moves only
    the operations it hit.
    """
    labels = passes[0]["times"]
    return sum(statistics.median(p["times"][label] for p in passes if label in p["times"])
               for label in labels)


def traced_report(args, env: dict, setup_spans: list, passes: list[dict]) -> dict:
    """Per-layer metrics of a traced run; prints the span table, writes the spans."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    # counts are per pass, so layers come from whole passes only
    metrics = tracing.median_metrics(
        [tracing.layer_metrics(p["spans"], p["wall_s"]) for p in traced if p["complete"]])
    setup = tracing.median_metrics(
        [tracing.layer_metrics(spans, wall) for spans, wall in setup_spans])
    for name in ("model.validate_s", "synthgen.generate_s"):
        metrics[name] = setup[name]
    traced_op = pass_seconds(traced)
    untraced_op = pass_seconds(untraced)
    metrics["trace.overhead_frac"] = traced_op / untraced_op - 1.0

    table = tracing.span_table([s for p in traced for s in p["spans"]])
    print(f"# traced op_s {traced_op:.4f} over {len(traced)} passes, untraced "
          f"{untraced_op:.4f} over {len(untraced)}; spans cover "
          f"{metrics['trace.coverage']:.1%} of traced wall time")
    print(f"# {'span':<34}{'calls':>8}{'total_s':>12}{'self_s':>12}")
    for name, row in table.items():
        print(f"# {name:<34}{row['calls']:>8}{row['total_s']:>12.4f}{row['self_s']:>12.4f}")
    trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "env": env, "span_table": table, "metrics": metrics,
        "setups": [{"wall_s": wall, "spans": spans} for spans, wall in setup_spans],
        "passes": [{"wall_s": p["wall_s"], "complete": p["complete"], "spans": p["spans"]}
                   for p in traced],
    }) + "\n")
    print(f"# spans -> {trace_file.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    lib = import_program()
    if lib is None:
        print(f"perfbench: no ehcalloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refs = workloads.load_refs(args.refs)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    null = tracing.NullTracer()
    wl = workloads.make(args.workload, args.seed, args.tiny, refs, lib,
                        null, out_dir)

    # set-up: what a user pays before the first operation
    setup_s, setup_spans = [], []
    for _ in range(SETUP_REPS):
        took = import_seconds()
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        wl.setup()
        gen = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
            setup_spans.append((tracer.take(), gen))
        setup_s.append(took + gen)

    passes: list[dict] = []
    pace: dict[str, float] = {}
    stop_at = time.perf_counter() + args.seconds
    min_passes = 2 if tracer else 1
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.install()
            wl.tracer = tracer
        p = run_pass(wl, lib, pace, stop_at if len(passes) >= min_passes else None)
        if traced:
            tracer.uninstall()
            wl.tracer = null
            spans = tracer.take()
        if p is None:
            break
        p["traced"] = traced
        if traced:
            p["spans"] = spans
        passes.append(p)
        if not p["complete"]:
            break
    whole = [p for p in passes if p["complete"]]

    env = environment(args, wl)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for i, p in enumerate(passes):
        mark = (" traced" if p["traced"] else "") + ("" if p["complete"] else " partial")
        print(f"# pass {i}{mark}: {p['wall_s']:.4f} s, ok {p['ok_frac']:.3f}, "
              f"proven_n_max {p['proven_n_max']}, {json.dumps(p['outcomes'])}")
        for err in p["errors"]:
            print(f"#   FAILED {err}")
    print(f"# setup_s samples {[round(s, 4) for s in setup_s]}")

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "op_s": pass_seconds(passes),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "proven_n_max": statistics.median_low(p["proven_n_max"] for p in whole),
            "ok_frac": statistics.median_low(p["ok_frac"] for p in whole),
        }
        units = END_TO_END_UNITS
    else:
        metrics = traced_report(args, env, setup_spans, passes)
        units = tracing.PER_LAYER_UNITS
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
