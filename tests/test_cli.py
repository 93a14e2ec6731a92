"""Command line driver: subcommands, exit codes, artifact files."""

import dataclasses
import json
import math
import subprocess
import sys

import pytest

import ehcalloc as e
from ehcalloc import oracle
from ehcalloc.cli import (
    EXIT_BAD_INPUT,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_TIME_LIMIT,
    main,
)
from ehcalloc.io import dump_system, dump_workflow
from ehcalloc.model import Device, Topology


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def plan_file(workdir):
    out = workdir / "plan.json"
    assert run("solve", "--out", str(out)) == EXIT_OK
    return out


#: every subcommand that solves, with the arguments it needs (weighted
#: export-mps without --bounds runs the normalization solves)
SOLVING_COMMANDS = pytest.mark.parametrize(
    "argv",
    [["solve"], ["sweep", "--out", "{dir}/limited.csv"], ["baseline"],
     ["export-mps", "--out", "{dir}/limited.mps"]],
    ids=["solve", "sweep", "baseline", "export-mps"])


class TestSolve:
    def test_writes_the_plan_and_exits_zero(self, plan_file):
        plan = json.loads(plan_file.read_text())
        assert plan["status"] == "optimal"
        assert plan["objective"]["g"] == pytest.approx(0.4650087960359758)
        assert len(plan["tasks"]) == 15

    def test_stdout_carries_the_json_without_out_file(self, capsys):
        assert run("solve") == EXIT_OK
        captured = capsys.readouterr()
        plan = json.loads(captured.out)
        assert plan["status"] == "optimal"
        assert "task" in captured.err      # the table goes to stderr

    def test_weight_override_changes_the_plan(self, workdir, capsys):
        out = workdir / "latency_only.json"
        assert run("solve", "--w-rel", "0.0", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        plan = json.loads(out.read_text())
        assert plan["weights"] == {"w_rel": 0.0, "w_lat": 1.0}
        assert plan["objective"]["f_lat_norm"] == pytest.approx(0.0, abs=1e-9)

    def test_repeat_runs_write_identical_bytes(self, workdir, capsys):
        a, b = workdir / "rep_a.json", workdir / "rep_b.json"
        assert run("solve", "--out", str(a)) == EXIT_OK
        assert run("solve", "--out", str(b)) == EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @SOLVING_COMMANDS
    def test_time_limit_zero_exits_three(self, argv, workdir, capsys):
        args = [a.format(dir=workdir) for a in argv]
        assert run(*args, "--time-limit", "0") == EXIT_TIME_LIMIT
        assert capsys.readouterr().err.startswith("time limit: ")

    @SOLVING_COMMANDS
    @pytest.mark.parametrize("limit", ["nan", "-1"])
    def test_bad_time_limit_exits_one(self, argv, limit, workdir, capsys):
        # a NaN deadline would never pass, a negative one would read as
        # time already up
        args = [a.format(dir=workdir) for a in argv]
        assert run(*args, "--time-limit", limit) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error: time limit must be")

    @SOLVING_COMMANDS
    def test_infeasible_system_exits_two(self, argv, workdir, topology, workflow,
                                         capsys):
        starved = Topology(
            [d if d.id != "e" else Device(**{**d.__dict__, "memory_budget": 1.0})
             for d in topology.devices],
            list(topology.channels.values()), dict(topology.relays))
        sys_file = workdir / "starved.json"
        dump_system(starved, sys_file)
        args = [a.format(dir=workdir) for a in argv]
        assert run(*args, "--system", str(sys_file)) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("infeasible: ")

    @pytest.mark.parametrize("gap, code", [(0, EXIT_OK), (1e-6, EXIT_BAD_INPUT)],
                             ids=["zero", "nonzero"])
    def test_only_a_zero_absolute_gap_is_accepted(self, gap, code, workdir, capsys):
        scenario = workdir / f"gap_{gap}.json"
        scenario.write_text(json.dumps({"solver": {"absolute_gap": gap}}))
        assert run("solve", "--scenario", str(scenario)) == code
        if code == EXIT_BAD_INPUT:
            assert "absolute_gap must be 0" in capsys.readouterr().err


class TestValidate:
    def test_accepts_a_solver_written_plan(self, plan_file, capsys):
        assert run("validate", "--plan", str(plan_file),
                   "--samples", "20000") == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "skip exhaustive check" in out   # bundled workflow is too big

    def test_rejects_a_tampered_objective(self, plan_file, workdir, capsys):
        doc = json.loads(plan_file.read_text())
        doc["objective"]["f_rel"] = doc["objective"]["f_rel"] * 2 - 1.0
        bad = workdir / "tampered.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", "--plan", str(bad),
                   "--samples", "20000") == EXIT_BAD_INPUT
        assert "FAIL f_rel" in capsys.readouterr().out

    def test_rejects_an_unknown_candidate(self, plan_file, workdir, capsys):
        doc = json.loads(plan_file.read_text())
        doc["tasks"][0]["candidate"] = "t1@mars"
        bad = workdir / "unknown.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", "--plan", str(bad)) == EXIT_BAD_INPUT
        assert "unknown candidate" in capsys.readouterr().out

    @pytest.mark.parametrize("field, value, line", [
        ("tasks", [1], "FAIL plan tasks are not a list of objects"),
        ("tasks", "t1@e", "FAIL plan tasks are not a list of objects"),
        ("tasks", {"t1": "t1@e"}, "FAIL plan tasks are not a list of objects"),
        ("objective", [0.5], "FAIL plan objective is not an object"),
        ("objective", 0.5, "FAIL plan objective is not an object"),
        ("objective", {"f_rel": "x"}, "FAIL f_rel recomputed"),
    ], ids=["task-number", "tasks-string", "tasks-object", "objective-list",
            "objective-number", "f_rel-string"])
    def test_a_malformed_plan_fails_without_a_traceback(self, plan_file, workdir, capsys,
                                                       field, value, line):
        doc = json.loads(plan_file.read_text())
        doc[field] = value
        bad = workdir / "malformed.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", "--plan", str(bad)) == EXIT_BAD_INPUT
        assert line in capsys.readouterr().out

    def test_a_candidate_that_is_not_a_string_is_unknown(self, plan_file, workdir, capsys):
        doc = json.loads(plan_file.read_text())
        doc["tasks"][0]["candidate"] = ["t1@e"]
        bad = workdir / "unhashable.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", "--plan", str(bad)) == EXIT_BAD_INPUT
        assert "unknown candidate ['t1@e']" in capsys.readouterr().out


@pytest.fixture(scope="module")
def serial_plan(workdir):
    """A 4-task serial workflow and its plan solved at w_rel = 0.2, away
    from validate's default weights; small enough to enumerate."""
    wf, plan = workdir / "serial4.json", workdir / "serial4_plan.json"
    assert run("generate", "--tasks", "4", "--structure", "serial", "--seed", "2",
               "--out", str(wf)) == EXIT_OK
    assert run("solve", "--workflow", str(wf), "--w-rel", "0.2", "--out", str(plan)) == EXIT_OK
    return wf, plan


class TestValidateExhaustively:
    def test_judges_the_plan_at_its_own_weights(self, serial_plan, capsys):
        wf, plan = serial_plan
        assert run("validate", "--workflow", str(wf), "--plan", str(plan),
                   "--samples", "20000") == EXIT_OK
        out = capsys.readouterr().out
        assert "ok   enumerated bounds" in out and "ok   exhaustive optimum" in out
        assert "FAIL" not in out

    def test_enumerates_the_space_once(self, serial_plan, monkeypatch, capsys):
        # the enumerated bounds and the exhaustive optimum share one pass
        wf, plan = serial_plan
        passes = []
        enumerate_all = oracle.feasible_points

        def counted(*args, **kwargs):
            passes.append(args)
            return enumerate_all(*args, **kwargs)

        monkeypatch.setattr(oracle, "feasible_points", counted)
        assert run("validate", "--workflow", str(wf), "--plan", str(plan),
                   "--samples", "20000") == EXIT_OK
        assert len(passes) == 1
        assert "ok   exhaustive optimum" in capsys.readouterr().out

    def test_the_brute_limit_is_the_enumeration_guard(self, serial_plan, monkeypatch, capsys):
        # a limit above the oracle's default guard must not be cut to it
        wf, plan = serial_plan
        guards = []
        enumerate_all = oracle.feasible_points

        def recorded(reg, guard=oracle.ENUMERATION_GUARD):
            guards.append(guard)
            return enumerate_all(reg, guard)

        monkeypatch.setattr(oracle, "feasible_points", recorded)
        limit = 10 * oracle.ENUMERATION_GUARD
        assert run("validate", "--workflow", str(wf), "--plan", str(plan),
                   "--samples", "20000", "--brute-limit", str(limit)) == EXIT_OK
        assert guards == [limit]
        assert "ok   exhaustive optimum" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", ["g", "bound"])
    def test_a_wrong_optimum_or_bound_fails(self, serial_plan, edit, workdir, capsys):
        wf, plan = serial_plan
        doc = json.loads(plan.read_text())
        if edit == "g":
            doc["objective"]["g"] += 1e-3
        else:
            doc["bounds"]["lat_max"] *= 1.001
        bad = workdir / f"serial4_{edit}.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", "--workflow", str(wf), "--plan", str(bad),
                   "--samples", "20000") == EXIT_BAD_INPUT
        line = "FAIL exhaustive optimum" if edit == "g" else "FAIL enumerated bounds"
        assert line in capsys.readouterr().out

    @pytest.mark.parametrize("weights", [None, {"w_rel": 0.7, "w_lat": 0.7},
                                         {"w_rel": "half", "w_lat": 0.5}],
                             ids=["missing", "sum", "string"])
    def test_a_plan_without_valid_weights_exits_one(self, serial_plan, weights,
                                                     workdir, capsys):
        wf, plan = serial_plan
        doc = json.loads(plan.read_text())
        if weights is None:
            del doc["weights"]
        else:
            doc["weights"] = weights
        bad = workdir / "serial4_weights.json"
        bad.write_text(json.dumps(doc))
        assert run("validate", "--workflow", str(wf), "--plan", str(bad)) == EXIT_BAD_INPUT
        assert "has no valid weights" in capsys.readouterr().err


class TestSweep:
    def test_writes_csv_and_json_siblings(self, workdir, capsys):
        out = workdir / "sweep.csv"
        assert run("sweep", "--step", "0.25", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 6                 # header + 5 grid points
        doc = json.loads((workdir / "sweep.json").read_text())
        assert [r["w_rel"] for r in doc["rows"]] == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_rejects_a_step_that_does_not_divide_one(self, workdir, capsys):
        out = workdir / "bad_sweep.csv"
        assert run("sweep", "--step", "0.3", "--out", str(out)) == EXIT_BAD_INPUT
        assert "divide 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--step", "nan"], "error: --step must lie in (0, 1]"),
        (["--workers", "2"], "usage: ehcalloc"),
    ], ids=["step-nan", "workers-2"])
    def test_rejects_bad_flags_without_writing(self, flags, message, workdir, capsys):
        out = workdir / "flagged_sweep.csv"
        assert run("sweep", *flags, "--out", str(out)) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists() and not out.with_suffix(".json").exists()


class TestUsage:
    # argparse's own status for these is 2, which here means infeasible
    @pytest.mark.parametrize("argv,message", [
        (["solve", "--bogus"], "unrecognized arguments: --bogus"),
        (["generate", "--tasks", "x", "--out", "unused.json"],
         "argument --tasks: invalid int value: 'x'"),
        (["sweep"], "the following arguments are required: --out"),
    ], ids=["unknown-flag", "not-an-int", "missing-required"])
    def test_usage_errors_exit_one_with_the_usage(self, argv, message, capsys):
        assert run(*argv) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("usage: ehcalloc ") and message in err

    def test_help_exits_zero(self, capsys):
        assert run("sweep", "--help") == EXIT_OK
        out = capsys.readouterr().out
        assert "--step" in out and "--workers" not in out


class TestGenerate:
    def test_written_workflow_feeds_back_into_solve(self, workdir, capsys):
        wf = workdir / "synthetic.json"
        assert run("generate", "--tasks", "4", "--seed", "3",
                   "--structure", "serial", "--out", str(wf)) == EXIT_OK
        plan = workdir / "synthetic_plan.json"
        assert run("solve", "--workflow", str(wf), "--out", str(plan)) == EXIT_OK
        capsys.readouterr()
        doc = json.loads(plan.read_text())
        assert doc["status"] == "optimal" and len(doc["tasks"]) == 4

    def test_generate_is_seed_deterministic(self, workdir, capsys):
        a, b = workdir / "gen_a.json", workdir / "gen_b.json"
        run("generate", "--tasks", "5", "--seed", "8", "--out", str(a))
        run("generate", "--tasks", "5", "--seed", "8", "--out", str(b))
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag", ["--fixed-edge-pct", "--fixed-hub-pct"])
    @pytest.mark.parametrize("pct", ["-10", "nan", "inf"])
    def test_bad_fixed_percentage_exits_one(self, flag, pct, workdir, capsys):
        # -10 used to pin all but one task, inf to end in an OverflowError
        out = workdir / "bad_pct.json"
        assert run("generate", "--tasks", "10", flag, pct, "--out", str(out)) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: fixed ") and "must lie in [0, 100]" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestBaseline:
    def test_reports_unrestricted_and_per_device_plans(self, workdir, capsys):
        out = workdir / "baseline.json"
        assert run("baseline", "--out", str(out)) == EXIT_OK
        err = capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert set(doc["baselines"]) == {"e", "h", "c"}
        assert doc["unrestricted"]["objective"]["g"] >= max(
            p["objective"]["g"] for p in doc["baselines"].values()
            if p["status"] == "optimal")
        assert "unrestricted:" in err and "all-on-c:" in err


class TestExportMps:
    def test_weighted_export_round_trips(self, workdir, capsys):
        from ehcalloc.solver import read_mps, solve_builtin

        out = workdir / "model.mps"
        assert run("export-mps", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        assert (workdir / "model.columns.json").exists()
        clone = read_mps(out)
        sol = solve_builtin(clone)
        assert sol.objective == pytest.approx(0.4650087960359758, abs=1e-12)

    def test_bounds_file_skips_the_normalization_solves(self, workdir, capsys):
        bounds = workdir / "bounds.json"
        bounds.write_text(json.dumps({
            "rel_min": -0.18331714772309596, "rel_max": -0.00657694255871655,
            "lat_min": 18.50629214, "lat_max": 365.21359598165776}))
        out = workdir / "model_b.mps"
        assert run("export-mps", "--bounds", str(bounds),
                   "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        assert out.exists()

    def test_auxiliary_objective_needs_no_bounds(self, workdir, capsys):
        out = workdir / "relmax.mps"
        assert run("export-mps", "--objective", "rel-max",
                   "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        sidecar = json.loads((workdir / "relmax.columns.json").read_text())
        assert sidecar["metadata"]["objective_kind"] == "rel-max"

    def test_malformed_bounds_file_exits_one(self, workdir, capsys):
        # a string used to end in a TypeError traceback, and NaN in an
        # MPS file full of nan values and exit 0
        bad, out = workdir / "bad_bounds.json", workdir / "bad_bounds.mps"
        for text, reason in [
            ('{"rel_min": -1}', "'rel_max'"),
            ('{"rel_min": "x", "rel_max": 0, "lat_min": 1, "lat_max": 2}',
             "rel_min must be a finite number, got 'x'"),
            ('{"rel_min": NaN, "rel_max": 0, "lat_min": 1, "lat_max": 2}',
             "rel_min must be a finite number, got nan"),
            ('{"rel_min": -1, "rel_max": 0, "lat_min": 3, "lat_max": 2}',
             "a minimum above their maximum"),
        ]:
            bad.write_text(text)
            assert run("export-mps", "--bounds", str(bad), "--out", str(out)) == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert "cannot read bounds" in err and reason in err
            assert not out.exists()


class TestBadInput:
    def test_missing_file_exits_one(self, capsys):
        assert run("solve", "--workflow", "/nonexistent/wf.json") == EXIT_BAD_INPUT
        capsys.readouterr()

    def test_invalid_workflow_is_reported(self, workdir, topology, capsys):
        import dataclasses

        from ehcalloc.model import TaskSpec, WorkflowGraph

        t = TaskSpec(id="t1", memory=1e6, storage=1e6, output_size=0.0,
                     allowed_devices=("e", "ghost"),
                     exec_time={"e": 1.0, "ghost": 1.0},
                     power={"e": 2.0, "ghost": 2.0},
                     vulnerability={"e": 0.05, "ghost": 0.05})
        wf_file = workdir / "ghost.json"
        dump_workflow(WorkflowGraph([t], []), wf_file)
        assert run("solve", "--workflow", str(wf_file)) == EXIT_BAD_INPUT
        assert "validation failed" in capsys.readouterr().err


#: per malformed config file: the flag that reads it, and its content made
#: from the fixture's system and workflow payloads
MALFORMED = {
    "device-without-id": ("--system", lambda system, workflow: {**system, "devices": [
        {k: v for k, v in d.items() if k != "id"} for d in system["devices"]]}),
    "system-list": ("--system", lambda system, workflow: [system]),
    "workflow-list": ("--workflow", lambda system, workflow: [workflow]),
    "scenario-list": ("--scenario", lambda system, workflow: []),
    "one-ended-arc": ("--workflow", lambda system, workflow: {**workflow, "arcs": [["a"]]}),
    "null-weight": ("--scenario", lambda system, workflow: {"weights": {"w_rel": None}}),
    "list-time-limit": ("--scenario", lambda system, workflow: {"solver": {"time_limit_s": [1]}}),
    "infinite-level": ("--scenario", lambda system, workflow: {"criticality": {"level": math.inf}}),
    "fractional-level": ("--scenario", lambda system, workflow: {"criticality": {"level": 2.7}}),
}


class TestMalformedConfig:
    @pytest.fixture(scope="class")
    def payloads(self, workdir, topology, workflow):
        sys_file, wf_file = workdir / "payload_sys.json", workdir / "payload_wf.json"
        dump_system(topology, sys_file)
        dump_workflow(workflow, wf_file)
        return json.loads(sys_file.read_text()), json.loads(wf_file.read_text())

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_exits_one_naming_the_file(self, case, payloads, workdir, capsys):
        flag, make = MALFORMED[case]
        path = workdir / f"malformed_{case}.json"
        path.write_text(json.dumps(make(*payloads)))
        assert run("solve", flag, str(path)) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(str(path)) == 1

    def test_a_directory_exits_one(self, workdir, capsys):
        assert run("solve", "--system", str(workdir)) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count(str(workdir)) == 1


def test_nan_in_a_workflow_file_exits_one_without_traceback(workdir):
    task = e.inspection_workflow().tasks[3]
    bad = e.WorkflowGraph([dataclasses.replace(task, exec_time={
        **task.exec_time, task.allowed_devices[0]: math.nan})], [])
    wf_file = workdir / "nan.json"
    dump_workflow(bad, wf_file)
    assert "NaN" in wf_file.read_text()
    proc = subprocess.run(
        [sys.executable, "-m", "ehcalloc.cli", "solve", "--workflow", str(wf_file)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_BAD_INPUT
    assert "validation failed" in proc.stderr and "Traceback" not in proc.stderr


def test_nan_time_limit_in_a_scenario_exits_one_without_traceback(workdir):
    scenario = workdir / "nan_limit.json"
    scenario.write_text('{"solver": {"time_limit_s": NaN}}')
    proc = subprocess.run(
        [sys.executable, "-m", "ehcalloc.cli", "solve", "--scenario", str(scenario)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr.startswith("error: ") and "time limit must be" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_nan_weight_exits_one_without_traceback(source, workdir):
    # a NaN weight used to reach the search, which then never pruned
    if source == "flag":
        extra = ["--w-rel", "nan"]
    else:
        scenario = workdir / "nan_weight.json"
        scenario.write_text('{"weights": {"w_rel": NaN}}')
        extra = ["--scenario", str(scenario)]
    proc = subprocess.run([sys.executable, "-m", "ehcalloc.cli", "solve", *extra],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_BAD_INPUT
    assert proc.stderr.startswith("error: ") and "weights" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_script_is_wired():
    proc = subprocess.run(
        [sys.executable, "-m", "ehcalloc.cli", "solve", "--w-rel", "0.5"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["status"] == "optimal"
