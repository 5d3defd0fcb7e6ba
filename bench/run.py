"""Pipeline benchmark: one seeded workload per call, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in its own worker process
(bench/worker.py) against the sources under src/, so peak RSS and set-up
time belong to that workload alone.  Set-up is timed in SETUP_PROBES extra
worker processes that stop once their inputs are ready and a speed sample
is taken, plus the measuring one; the median is reported.  A run is a fixed
number of instances sized from --seconds (bench/worker.py), and every
timing is rescaled to a reference machine speed sampled next to it
(bench/speed.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones, from a
separate traced run (see bench/spans.py).  Every metric, the tail percentile
and its sample count, the output digest, the layer-share checks and the run
context are also written to bench/out/.  Exits nonzero, printing no result,
when the workload cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBES = 6
TAIL_BEYOND = 10
# the whole call must end within 180 s
TIME_LIMIT_S = 170.0
# no thread pools in the worker: one client, no threads
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def spawn_worker(args, extra: list, timeout: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON result and the
    monotonic time just before it was started."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    env = dict(os.environ, **WORKER_ENV)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, timeout), text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: the
    (N - TAIL_BEYOND)-th smallest time.  Returns (value, percentile,
    samples beyond); with too few samples, the maximum and 0."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(raw: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced run.  Each timing is rescaled
    to the reference machine speed by the speed samples taken next to it
    (bench/speed.py): an instance by those before and after it, a set-up by
    the one its process took right after it.  The raw timings go to the
    notes.  `setups` holds (seconds, speed sample) pairs."""
    kind = raw["reference_kernel"]
    factors = speed.factors(raw["reference"], kind)
    scaled = [t * f for t, f in zip(raw["times"], factors)]
    scaled_total = sum(t * f for t, f in zip(raw["totals"], factors))
    reference_s = speed.KERNELS[kind].reference_s
    setup = statistics.median(s * reference_s / ref for s, ref in setups)
    value, percentile, beyond = tail(scaled)
    metrics = {
        "instances_per_s": raw["attempted"] / scaled_total,
        "instance_p50_s": statistics.median(scaled),
        "instance_tail_s": value,
        "setup_s": setup,
        "rss_peak_mb": raw["rss_peak_kb"] / 1024.0,
        "success_rate": 1.0 - raw["failed"] / raw["attempted"],
    }
    raw_timings = {
        "instances_per_s": raw["attempted"] / raw["elapsed"],
        "instance_p50_s": statistics.median(raw["times"]),
        "instance_tail_s": tail(raw["times"])[0],
        "setup_s": statistics.median(s for s, _ in setups),
    }
    notes = {"tail_percentile": percentile, "tail_samples_beyond": beyond,
             "samples": raw["attempted"], "setup_samples": setups,
             "error_rate": raw["failed"] / raw["attempted"],
             "reference_kernel": kind, "speed_factor_median": statistics.median(factors),
             "raw_timings": raw_timings}
    return metrics, notes


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context() -> dict:
    with open("/proc/loadavg") as fh:
        loadavg = fh.read().strip()
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": loadavg,
            "commit": git_commit()}


def select(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not os.path.isdir(os.path.join(ROOT, "src", "gapclique")):
        raise BenchError("src/gapclique not found: run from a checkout of the repository")
    started = time.monotonic()
    ctx = context()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            probe, spawned = spawn_worker(args, ["--setup-only"], 60.0)
            setups.append((probe["ready"] - spawned, probe["reference"]))
    raw, spawned = spawn_worker(args, [], TIME_LIMIT_S - (time.monotonic() - started))
    ctx.update(python=raw["python"], numpy=raw["numpy"])
    if args.trace:
        metrics = select(spec["per_layer"], raw["layer_metrics"])
        notes = {"layer_check": raw["layer_check"], "spans": raw["spans"],
                 "all_layer_metrics": raw["layer_metrics"]}
    else:
        setups.append((raw["ready"] - spawned, raw["reference"][0]))
        values, notes = end_to_end(raw, setups)
        metrics = select(spec["end_to_end"], values)
    result = {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, context=ctx, digest=raw["digest"],
                  failures=raw["failures"], instance_times=raw["times"], **notes)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    summary(detail)
    return result


def summary(d: dict):
    line = (f"bench {d['workload']} seed={d['seed']} trace={d['trace']}: "
            f"{d['attempted']} instances, {d['failed']} failed, "
            f"digest match={d['digest']['match']}")
    if not d["trace"]:
        line += f", tail = p{d['tail_percentile']:.1f} over {d['samples']} samples"
    print(line, file=sys.stderr)
    check = d.get("layer_check")
    if check:
        print(f"  layer share: {check['claim']}: {check['value']:.3f} "
              f"{'holds' if check['holds'] else 'MISSES'}", file=sys.stderr)
    for f in d["failures"][:3]:
        print(f"  failed instance {f['instance']}: {f['failures'][0]}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
