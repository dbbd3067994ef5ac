"""Tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench
"""

import dataclasses
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from sortlab import bench  # noqa: E402
from sortlab.datagen import DatasetSpec  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced_result(request):
    """One short traced run a workload: an untraced and a traced repetition."""
    done = run_bench(request.param, trace=1)
    assert done.returncode == 0, done.stderr
    return request.param, json.loads(done.stdout.splitlines()[-1]), done.stderr


def golden_records(golden):
    return bench.read_csv(io.StringIO(golden["csv"]))


def test_golden_check_flags_altered_counters():
    golden = workloads.load_golden("uniform-grid")
    records = golden_records(golden)
    assert workloads.trial_failures(records, golden["csv"], golden) == []
    records[5] = dataclasses.replace(records[5], comparisons=records[5].comparisons + 1)
    assert workloads.trial_failures(records, golden["csv"], golden) == [5]


def test_golden_check_flags_altered_csv_row_and_missing_trials():
    golden = workloads.load_golden("baselines-grid")
    records = golden_records(golden)
    lines = golden["csv"].splitlines(keepends=True)
    lines[3] = lines[3].replace(",0,", ",9,", 1)
    assert workloads.trial_failures(records, "".join(lines), golden) == [2]
    assert workloads.trial_failures(records[:-1], golden["csv"], golden) == [len(records) - 1]


def test_golden_check_flags_a_changed_gate_verdict():
    golden = workloads.load_golden("gate-subset")
    rep = workloads.Rep(seconds=1.0, attempted=len(golden["criteria"]))
    rep.outputs = {"criteria": [list(c) for c in golden["criteria"]]}
    rep.outputs["criteria"][2][1] = False
    workloads.check_golden(rep, golden)
    assert rep.failed == [2]


def test_layer_metrics_of_a_later_repetition():
    tracer = tracing.Tracer()
    grid = [("bcis", DatasetSpec("uniform", 300), 2), ("qs", DatasetSpec("uniform", 300), 1)]
    with tracer.installed():
        bench.run_suite(grid)
        first = len(tracer.spans)
        t0 = time.perf_counter()
        records = bench.run_suite(grid)
        wall = time.perf_counter() - t0
    m = tracing.layer_metrics(tracer.spans[first:], wall)
    assert m["bench.run_suite.calls"] == 1
    assert m["bench.run_trial.calls"] == m["datagen.generate.calls"] == 3
    assert m["bcis.sort.calls"] == 2 and m["baselines.qs.calls"] == 1
    assert m["bcis.comparisons"] == sum(r.comparisons for r in records if r.algo == "bcis")
    assert sum(m[k] for k in tracing.SELF_TIME_METRICS) == pytest.approx(wall)


def test_workload_passes_with_no_failed_operation(traced_result):
    name, result, stderr = traced_result
    assert result["correct"], stderr
    assert result["failed"] == 0
    grid = workloads.WORKLOADS[name].grid()
    per_rep = len(grid) if name == "gate-subset" else sum(t for *_, t in grid)
    assert result["attempted"] >= 2 * per_rep
    assert result["attempted"] % per_rep == 0


def test_traced_metrics_are_the_declared_per_layer_metrics(traced_result):
    _, result, _ = traced_result
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_untraced_metrics_are_the_declared_end_to_end_metrics():
    done = run_bench("gate-subset", trace=0)
    assert done.returncode == 0, done.stderr
    info = json.loads(done.stdout.splitlines()[-2])["perfbench"]
    result = json.loads(done.stdout.splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert info["failed_share"] == 0
    assert {"python", "nproc", "platform", "sortlab", "git_commit"} <= set(info["env"])


def test_dominant_layer(traced_result):
    name, result, _ = traced_result
    m = {k: v["value"] for k, v in result["metrics"].items()}
    wall = m["trace.wall_s"]
    if name in ("uniform-grid", "gate-subset"):
        assert m["bcis.sort.s"] > wall / 2
    elif name == "baselines-grid":
        assert m["bcis.sort.calls"] == 0
        assert m["baselines.is.s"] + m["baselines.qs.s"] > wall / 2
    else:
        assert m["bcis.sort.s"] + m["bench.run_trial.self_s"] > wall / 2


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("uniform-grid", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
