"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from gapclique import reduction  # noqa: E402
from spans import Recorder, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

COUNT_SUFFIXES = (".calls", ".pairs", ".edges", ".vertices", ".cases", ".tries", ".nodes",
                  ".tuples", ".certified_per_try", "trace.instances")


def bench(workload, trace, seed=0, seconds=0.1):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_prints_every_metric_and_passes_its_checks(workload):
    # the default seed also compares the output digest to the recorded one
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    e2e = bench(workload, 0, seed=1)["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())
    assert e2e["success_rate"]["value"] == 1.0


def test_rejected_planted_clique_counts_as_failed(monkeypatch, tmp_path):
    original = reduction.CliqueInstance.planted_clique

    def one_wrong_value(self, indices, *args, **kwargs):
        clique = original(self, indices, *args, **kwargs)
        j = next(j for j, v in enumerate(clique) if v.alpha != v.beta)
        v = clique[j]
        clique[j] = v._replace(x=((v.x[0] + 1) % self.params.q,) + v.x[1:])
        return clique

    monkeypatch.setattr(reduction.CliqueInstance, "planted_clique", one_wrong_value)
    raw = worker.measure(WORKLOADS["planted-verify"], 1, 0.0, str(tmp_path))
    raw["rss_peak_kb"] = 1
    metrics, notes = run.end_to_end(raw, [(1.0, raw["reference"][0])])
    assert raw["failed"] == raw["attempted"] > 0
    assert notes["error_rate"] == 1.0 and metrics["success_rate"] == 0.0
    assert "verify_clique rejected" in raw["failures"][0]["failures"][0]


def traced(workload, seed, tmp_path):
    recorder = Recorder()
    out = worker.measure_traced(WORKLOADS[workload], seed, 0.0, str(tmp_path), recorder)
    assert out["failed"] == 0
    return out, recorder.spans


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    out, spans = traced("unsat-solve", 1, tmp_path)
    assert out["layer_metrics"]["cli.main.calls"] == 4 * out["attempted"]
    depth = 0
    for s, self_s in zip(spans, self_times(spans)):
        assert s["end"] >= s["start"] and self_s >= 0.0
        if s["parent"] is None:
            assert s["name"] == "instance"
            continue
        parent = spans[s["parent"]]
        assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
        assert parent["instance"] == s["instance"]
        chain = 0
        while s["parent"] is not None:
            s, chain = spans[s["parent"]], chain + 1
        depth = max(depth, chain)
    # instance -> cli.main -> certified_map -> check_wellspread
    assert depth >= 3


def test_exact_counts_repeat_for_a_seed(tmp_path):
    first, _ = traced("unsat-solve", 2, tmp_path)
    second, _ = traced("unsat-solve", 2, tmp_path)
    counts = {k: v for k, v in first["layer_metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts["reduction.materialize.pairs"] > 0
    assert counts == {k: second["layer_metrics"][k] for k in counts}


def test_tail_has_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(40)])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0, 0)


def test_run_is_a_fixed_count_of_whole_rounds():
    w = WORKLOADS["lintest-tables"]
    count = worker.run_instances(w, 25)
    assert count % len(w.points) == 0 and count >= 4 * len(w.points)
    assert worker.run_instances(w, 0) == worker.digest_instances(w)


def test_timings_are_rescaled_to_the_reference_speed():
    # the kernel at half its reference time means a machine twice as fast
    ref = speed.KERNELS["numpy"].reference_s
    raw = {"times": [1.0, 2.0, 3.0], "totals": [1.5, 2.5, 3.5], "elapsed": 7.5,
           "attempted": 3, "failed": 0, "rss_peak_kb": 1024,
           "reference": [ref / 2, ref / 2, ref, ref], "reference_kernel": "numpy"}
    metrics, notes = run.end_to_end(raw, [(0.5, ref / 2), (0.3, ref)])
    # the instances' factors are 2, 4/3 and 1
    assert speed.factors(raw["reference"], "numpy") == pytest.approx([2.0, 4 / 3, 1.0])
    assert metrics["instance_p50_s"] == pytest.approx(2.0 * 4 / 3)
    assert metrics["instance_tail_s"] == pytest.approx(3.0)
    assert metrics["instances_per_s"] == pytest.approx(3 / (1.5 * 2 + 2.5 * 4 / 3 + 3.5))
    assert metrics["setup_s"] == pytest.approx((1.0 + 0.3) / 2)
    assert notes["raw_timings"]["instance_p50_s"] == 2.0
    assert metrics["rss_peak_mb"] == 1.0 and metrics["success_rate"] == 1.0


@pytest.mark.parametrize("kind", list(speed.KERNELS))
def test_reference_kernels_check_their_results(kind):
    speed.warm_up(kind)
    assert 0.0 < speed.sample(kind) < 10 * speed.KERNELS[kind].reference_s
