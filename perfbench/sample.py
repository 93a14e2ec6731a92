"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sample.py --runs 10 --trace 0 --save perfbench/baseline.json

Runs the BENCHMARK.json command once per seed (1, 2, ...) on each
workload, one run at a time, and prints for every metric the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the metric's bound.  ``--save`` merges the
runs and their summary into a JSON file under "untraced" or "traced".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[6:]) for line in lines if line.startswith("# env "))
    return {"seed": seed, "env": env, "result": json.loads(lines[-1])}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--save", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            runs.append(one_run(workload, seed, args.trace))
            r = runs[-1]["result"]
            print(f"{workload} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()
                             if args.trace == 0 or k.endswith("_s") or k.startswith("trace.")),
                  flush=True)
        names = list(runs[0]["result"]["metrics"])
        stats = {n: summary([r["result"]["metrics"][n]["value"] for r in runs]) for n in names}
        report[workload] = {"runs": runs, "metrics": stats,
                            "all_correct": all(r["result"]["correct"] for r in runs)}
        for n, s in stats.items():
            bound = bounds.get(n)
            spread = s["spread"]
            flag = ""
            if bound is not None and spread is not None:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "over 1/3")
            print(f"  {n:<28} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {spread if spread is None else round(spread, 4)!s:<8} "
                  f"bound {bound!s:<5} {flag}", flush=True)
    if args.save:
        saved = json.loads(args.save.read_text()) if args.save.exists() else {}
        key = "traced" if args.trace else "untraced"
        saved.setdefault(key, {}).update(report)
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
