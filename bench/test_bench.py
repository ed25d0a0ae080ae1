"""Tests of the benchmark itself, on smoke sizes:

    python -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import tracer
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import interdict  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def run_bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], capture_output=True, text=True, cwd=cwd,
        timeout=170,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    result = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", "1", "--smoke"))
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert metrics["graph.max_flow.calls"]["value"] > 0
    assert metrics["linopt.solve_lp.calls"]["value"] > 0
    if workload == "families":
        assert metrics["instances.parse.total_s"]["value"] > 0
        assert metrics["cli.main.self_s"]["value"] > 0


def test_known_refusal_counts_against_solved_share():
    proc = run_bench("--workload", "rni_ladder", "--seconds", "1", "--smoke")
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["solved_share"]["value"] < 1
    assert "refused: random_instance(12, 24, 10, 2, 5)" in proc.stdout


def test_family_check_classifies_cli_outcomes():
    solve = ("solve", "--model", "rni")
    expected = workloads.family_values("fig2a", 6, 2)
    limit = json.dumps({"error": {"kind": "limit", "message": "too many"}})
    assert workloads._family_check((2, limit), solve, expected) == ("refused", "too many")
    good = json.dumps({"value": 2.0, "certificate": {"pass": True}})
    assert workloads._family_check((0, good), solve, expected) == ("ok", "")
    bad = json.dumps({"value": 2.5, "certificate": {"pass": True}})
    assert workloads._family_check((0, bad), solve, expected)[0] == "wrong"
    assert workloads._family_check((3, "{}"), solve, expected)[0] == "wrong"


def test_run_without_library_source_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "corpus", "--seconds", "1", cwd=tmp_path,
                     script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed():
    def names(seed):
        return [op.name for op in workloads.build("corpus", interdict, seed, False, "").ops]

    assert names(5) == names(5)
    assert names(5) != names(6)
    first = names(5)[:60]
    sizes = sorted(name.split("(")[1].split(",")[:2] + [name.split(",")[3]] for name in first)
    assert len({tuple(s) for s in sizes}) == 60  # every size combination once per block


def test_lp_shape_counts_the_standard_form():
    lp = interdict.LpProblem(3, sense="max")
    lp.set_bounds(0, 0.0, 4.0)  # shifted, plus a bound row
    lp.set_bounds(1, -float("inf"), float("inf"))  # split in two columns
    lp.set_bounds(2, 1.0, 1.0)  # fixed, folded away
    lp.add_row({0: 1.0, 1: 1.0}, "<=", 3.0)  # slack
    lp.add_row({1: 1.0, 2: 1.0}, ">=", 5.0)  # surplus and artificial
    lp.add_row({0: 1.0, 2: 2.0}, "=", 1.0)  # rhs turns negative: artificial only
    rows, cols, nnz, tableau = tracer.lp_shape(lp)
    assert (rows, cols, nnz) == (4, 3, 3 + 2 + 1 + 1)
    assert tableau == (4 + 2) * (3 + 1 + 2 + 1 + 1 + 1) * 8


def test_summarize_computes_self_times_and_checks_nesting():
    spans = [
        ["bench.op", 0.0, 10.0, -1],
        ["solvers.solve_rni", 1.0, 9.0, 0],
        ["linopt.solve_lp", 2.0, 7.0, 1],
        ["graph.max_flow", 7.5, 8.0, 1],
    ]
    summary = tracer.summarize(spans)
    assert summary["self"]["solvers.solve_rni"] == pytest.approx(2.5)
    assert summary["layer_self"]["linopt"] == pytest.approx(5.0)
    assert sum(summary["layer_self"].values()) == pytest.approx(summary["roots_s"])
    spans[3][2] = 9.5  # ends after its parent
    with pytest.raises(tracer.TraceError):
        tracer.summarize(spans)


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert harness.percentile(values, 50) == 50.5
    assert harness.percentile(values, 95) == pytest.approx(95.05)
    assert harness.percentile([3.0], 95) == 3.0
