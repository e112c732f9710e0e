"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python -m pytest bench -q``; the
repository's own test run (``testpaths = tests``) does not collect them.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TINY = 0.002
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _tiny(workload, trace, seed=3):
    return run.run(workload, seed, 0.0, trace, ROOT, scale=TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_emits_every_metric_with_its_unit(workload, trace):
    result, _ = _tiny(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(
        workloads.generate(workload, 3, "x", TINY)
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_sum_to_at_most_traced_wall(workload):
    _, record = _tiny(workload, 1)
    for traced in record["traced_passes"]:
        total = sum(traced[f"{layer}.self_s"] for layer in spans.LAYERS)
        assert 0.0 < total <= traced["trace.wall_s"]


def test_two_traced_runs_give_identical_exact_counts():
    first = _tiny("sweep", 1)[0]["metrics"]
    second = _tiny("sweep", 1)[0]["metrics"]
    for name in spans.EXACT_COUNTS:
        assert first[name] == second[name]
    assert first["qmath.entropy_calls"]["value"] > 0


def _first_pass(workload, seed, scale):
    out_dir = os.path.join(run.OUT_ROOT, workload)
    os.makedirs(out_dir, exist_ok=True)
    commands = workloads.generate(workload, seed, out_dir, scale)
    with run.Launcher(os.path.join(ROOT, "src")) as launcher:
        return commands, run._collect_outputs(commands, [run.run_command(launcher, c) for c in commands])


def _corrupt_first_row(cmd):
    with open(cmd["out"], encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    cells = lines[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[1] = ",".join(cells)
    with open(cmd["out"], "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))


def test_output_check_catches_a_corrupted_value():
    commands, results = _first_pass("sweep", 5, TINY)
    csv = next(c for c in commands if c["out"].endswith(".csv"))
    assert run.check_output("sweep", 5, csv, 0) is None
    _corrupt_first_row(csv)
    assert "row 0" in run.check_output("sweep", 5, csv, 0)


def test_later_pass_with_different_bytes_counts_as_failed():
    commands, results = _first_pass("surface", 5, TINY)
    verifier = run.Verifier("surface", 5, commands)
    verifier.first_pass(results)
    assert verifier.failed == 0
    _corrupt_first_row(commands[0])
    verifier.later_pass(run._collect_outputs(commands, [{"exit": 0} for _ in commands]))
    assert verifier.failed == 1 and 0 in verifier.problems


def test_recorded_digest_catches_a_reformatted_freeze_report():
    # Same JSON content, different bytes: only the sha256 check sees it.
    commands, results = _first_pass("oracle", run.DEFAULT_SEED, 1.0)
    freeze = commands[1]
    with open(freeze["out"], encoding="utf-8") as handle:
        report = json.load(handle)
    with open(freeze["out"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    verifier = run.Verifier("oracle", run.DEFAULT_SEED, commands)
    verifier.first_pass(run._collect_outputs(commands, [{"exit": r["exit"]} for r in results]))
    assert list(verifier.problems) == [1] and "sha256" in verifier.problems[1]


def test_freeze_check_rejects_an_inconsistent_report():
    commands, results = _first_pass("oracle", 7, TINY)
    freeze = commands[-1]
    assert run.check_output("oracle", 7, freeze, 0) is None
    with open(freeze["out"], encoding="utf-8") as handle:
        report = json.load(handle)
    report["numeric_consistent"] = False
    with open(freeze["out"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    assert "freeze report" in run.check_output("oracle", 7, freeze, 0)


def _branch(params):
    """The boundary branch a command's geometry takes."""
    u = params.get("u")
    if params.get("geometry") != "mirror":
        return params.get("geometry")
    return "series" if u < workloads.SERIES_CUTOFF else "direct"


def test_generator_is_seeded_and_keeps_work_fixed():
    for workload in workloads.WORKLOADS:
        one = workloads.generate(workload, 11, "out")
        assert one == workloads.generate(workload, 11, "out")
        for seed in range(12, 20):
            other = workloads.generate(workload, seed, "out")
            assert [c["argv"] for c in one] != [c["argv"] for c in other]
            assert [c["rows"] for c in one] == [c["rows"] for c in other]
            assert [_branch(c["params"]) for c in one] == [_branch(c["params"]) for c in other]
    validates = {tuple(workloads.generate("oracle", seed, "out")[0]["argv"]) for seed in range(1, 20)}
    (validate,) = validates
    assert int(validate[validate.index("--seed") + 1]) >= 1


def test_wrapper_cost_is_taken_out_of_self_and_inclusive_times():
    recorder = spans.SpanRecorder()
    root = recorder.name_index(spans.ROOT_SPAN)
    leaf = recorder.name_index("qmath.entropy_bits")
    mid = recorder.name_index(spans.TRACE_SPAN)
    # root [0, 10] > mid [1, 9] > two leaves [2, 3] and [4, 6]
    for nid, parent, start, end in ((root, -1, 0.0, 10.0), (mid, 0, 1.0, 9.0), (leaf, 1, 2.0, 3.0), (leaf, 1, 4.0, 6.0)):
        recorder.name_id.append(nid)
        recorder.parent.append(parent)
        recorder.command.append(0)
        recorder.start.append(start)
        recorder.end.append(end)
    recorder.inner_s, recorder.outer_s = 0.25, 0.5
    metrics = recorder.layer_metrics()
    assert metrics["trace.span_cost_s"] == 0.75
    assert metrics["qmath.self_s"] == (1.0 - 0.25) + (2.0 - 0.25)
    assert metrics["single_qubit.self_s"] == 8.0 - 3.0 - 0.25 - 2 * 0.5
    assert metrics["cli.self_s"] == 10.0 - 8.0 - 0.5
    assert metrics["single_qubit.trace_s"] == 8.0 - 0.25 - 2 * 0.75


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
