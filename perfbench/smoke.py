"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py          # from the root of a checkout

Checks that:

* every workload prints, as its last line, a result with exactly the
  keys correct, attempted, failed and metrics; every metric
  BENCHMARK.json names for that mode
  (end-to-end untraced, per-layer traced) with its unit, and no failure;
* a perturbed reference answer makes the run report the operation as
  failed and the result as incorrect;
* in a directory holding only BENCHMARK.json and perfbench/, the run
  exits non-zero without printing a result.

Exits non-zero, naming what failed, if any check fails.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [*BENCH["command"], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines[-1] if lines else ""


def check_result(workload: str, trace: int, last: str) -> list[str]:
    problems = []
    result = json.loads(last)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{workload}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{workload}: attempted={result.get('attempted')!r}")
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in wanted):
        problems.append(f"{workload} trace={trace}: metrics "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})} differ")
    for m in wanted:
        entry = got.get(m["name"], {})
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{workload}: metric {m['name']} printed as {entry!r}")
        elif not trace and entry["value"] == 0:
            problems.append(f"{workload}: end-to-end metric {m['name']} is 0")
    return problems


def perturbed_refs() -> list[tuple[str, Path]]:
    """Reference files that each change one answer, with the workload that checks it."""
    refs = json.loads((HERE / "refs.json").read_text())
    edits = [
        ("fixture-sweep", lambda r: r["fixture"]["solve"].update(g=r["fixture"]["solve"]["g"] + 1e-6)),
        ("fixture-sweep", lambda r: r["fixture"]["sweep"][0]["row"].update(rep_e_e=-1)),
        ("synth-frontier", lambda r: r["frontier"]["serial-10"]["picks"].reverse()),
        ("large-export", lambda r: r["export"]["3"].update(
            {"mixed-100": r["export"]["3"]["mixed-100"] * (1 + 1e-6)})),
    ]
    out = []
    for i, (workload, edit) in enumerate(edits):
        changed = copy.deepcopy(refs)
        edit(changed)
        path = OUT / f"refs-perturbed-{i}.json"
        path.write_text(json.dumps(changed))
        out.append((workload, path))
    return out


def bare_dir_fails() -> list[str]:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, last = run(BENCH["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or last.startswith("{"):
        return [f"bare directory: exit {proc.returncode}, last line {last!r}"]
    return []


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    names = [w["name"] for w in BENCH["workloads"]]
    for workload in names:
        for trace in (0, 1):
            proc, last = run(workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            problems += check_result(workload, trace, last)
    for workload, path in perturbed_refs():
        proc, last = run(workload, 0, "--refs", str(path))
        result = json.loads(last) if last.startswith("{") else {}
        if proc.returncode != 0 or result.get("correct") is not False \
                or not result.get("failed"):
            problems.append(f"{workload}: perturbed reference not reported as failed "
                            f"(exit {proc.returncode}, last line {last!r})")
    problems += bare_dir_fails()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
