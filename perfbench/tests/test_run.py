"""The benchmark command end to end, on the cheapest workload with a short run."""
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOAD, SEED = "sample_eval", 3


def _run(tmp, trace, cwd=ROOT):
    results = os.path.join(tmp, f"trace{trace}-{len(os.listdir(tmp))}")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--results", results],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    (path,) = [os.path.join(results, f) for f in os.listdir(results)]
    with open(path) as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("results"))
    return {"plain": _run(tmp, 0), "traced": [_run(tmp, 1), _run(tmp, 1)]}


def test_result_line_follows_the_contract(runs):
    line, result = runs["plain"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == list(metrics.RESULT_LINE_E2E)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    traced_line, _ = runs["traced"][0]
    assert list(traced_line["metrics"]) == list(metrics.PER_LAYER_NAMES)
    assert result["fingerprint"]["blas_threads_runtime"] == 1


def test_untraced_runs_install_no_wrapper(runs):
    _, result = runs["plain"]
    assert result["traced_rounds"] == 0 and result["layers"] is None
    assert result["wrappers_in_untraced_rounds"] == []
    _, traced = runs["traced"][0]
    assert traced["traced_rounds"] >= 1
    assert traced["wrappers_in_untraced_rounds"] == []


def test_two_traced_runs_of_one_seed_give_identical_counts(runs):
    (_, a), (_, b) = runs["traced"]
    counts = [n for n in metrics.PER_LAYER_NAMES if metrics.layer_exact(n)]
    assert {n: a["layers"][n] for n in counts} == {n: b["layers"][n] for n in counts}
    assert a["layers"]["sampler.ddim_sample.calls_per_eval"] == 16
    assert a["layers"]["autodiff.backward.calls"] == 0
    assert a["artifacts"] == b["artifacts"]


def test_tracing_overhead_is_the_traced_to_untraced_run_s_ratio(runs):
    _, result = runs["traced"][0]
    traced = [s for t, s in result["round_run_s"] if t]
    plain = [s for t, s in result["round_run_s"] if not t]
    assert plain, "a traced run keeps untraced rounds to compare against"
    assert result["layers"]["trace.overhead_ratio"] == pytest.approx(
        statistics.fmean(traced) / statistics.fmean(plain))
    assert result["e2e"]["run_s"] == pytest.approx(statistics.fmean(plain))
    plain_ref = [s for t, s in result["round_ref_s"] if not t]
    assert result["e2e"]["run_ref_s"] == pytest.approx(statistics.median(plain_ref))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
