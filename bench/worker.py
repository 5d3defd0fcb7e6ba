"""One workload in one process: the measuring side of the benchmark.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Runs closed-loop with one client and no threads: each instance starts when
the previous one has been checked.  Prints one JSON object with the raw
results; bench/run.py turns them into metrics.  With --setup-only it stops
as soon as the first instance's inputs are ready, so the parent can time
set-up alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import speed
from spans import Recorder, layer_metrics, share_check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 0
# an untraced run stops early once it has taken this many times --seconds
CUT_FACTOR = 1.2


def digest_instances(workload) -> int:
    """Instances covered by the output digest: the first round, at least two."""
    return max(2, len(workload.points))


def execute(workload, inp: dict, workdir: str, recorder=None, index=None) -> dict:
    """Run, time and check one instance.  Failed means a wrong answer, a
    refusal or any exception; a failed CLI step shows as a nonzero exit."""
    t0 = time.perf_counter()
    try:
        if recorder is None:
            raw = workload.run(inp, workdir)
        else:
            recorder.instance = index
            raw = recorder.span("instance", workload.run, (inp, workdir))
        seconds = time.perf_counter() - t0
        failures, record = workload.verify(inp, raw, workdir)
    except Exception as exc:  # every error of the program under test is an outcome
        seconds = time.perf_counter() - t0
        failures, record = [f"{type(exc).__name__}: {exc}"], {"error": type(exc).__name__}
    return {"seconds": seconds, "failures": failures, "record": record}


def check_digest(workload, seed: int, records: list) -> dict:
    """SHA-256 of the exact outputs of the first instances; on the default
    seed it must equal the digest recorded in digests.json."""
    count = digest_instances(workload)
    blob = json.dumps(records[:count], sort_keys=True, separators=(",", ":")).encode()
    got = hashlib.sha256(blob).hexdigest()
    out = {"instances": count, "sha256": got, "expected": None, "match": None}
    if seed == DEFAULT_SEED:
        with open(DIGESTS) as fh:
            expected = json.load(fh)[workload.name]["sha256"]
        out.update(expected=expected, match=got == expected)
    return out


def run_instances(workload, seconds: float) -> int:
    """Instances of an untraced run: whole rounds over the points, as many
    as take `seconds` at the workload's nominal instance time plus the
    speed samples, and at least the digest instances.  The count depends on
    the run length only, so two versions of the program measure exactly the
    same inputs for a seed, and the tail percentile sits at the same rank in
    every run."""
    rounds = len(workload.points)
    kernel_s = speed.KERNELS[workload.reference].reference_s
    per_instance = workload.nominal_s + speed.REPEATS * kernel_s
    count = rounds * round(seconds / (rounds * per_instance))
    return max(digest_instances(workload), count)


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Untraced closed loop over run_instances() instances, with a speed
    sample (bench/speed.py) before each instance and after the last; the
    samples are not counted in any timing.  On a machine much slower than
    nominal the loop stops after CUT_FACTOR * seconds, once the digest
    instances are done."""
    count = run_instances(workload, seconds)
    minimum = digest_instances(workload)
    speed.warm_up(workload.reference)
    results, totals, reference = [], [], [speed.sample(workload.reference)]
    deadline = time.perf_counter() + CUT_FACTOR * seconds
    for i in range(count):
        if i >= minimum and time.perf_counter() > deadline:
            break
        t0 = time.perf_counter()
        result = execute(workload, workload.inputs(seed, i), workdir)
        totals.append(time.perf_counter() - t0)
        reference.append(speed.sample(workload.reference))
        if i >= minimum:
            result["record"] = None  # only the digest instances keep their outputs
        results.append(result)
    out = finish(workload, seed, results, sum(totals))
    out["totals"] = totals
    out["reference"] = reference
    out["reference_kernel"] = workload.reference
    return out


def trace_instances(workload, seconds: float) -> int:
    """Fixed instance count of the traced run (whole rounds, at least the
    digest instances), derived from the run length only, so that its work
    counts repeat exactly for a seed."""
    rounds = len(workload.points)
    count = rounds * round(seconds / (2 * rounds * workload.nominal_s))
    return max(digest_instances(workload), count)


def measure_traced(workload, seed: int, seconds: float, workdir: str, recorder) -> dict:
    """Each instance runs twice on the same inputs, traced and untraced, in
    alternating order; the two totals give the tracing overhead."""
    count = trace_instances(workload, seconds)
    results, traced_s, untraced_s = [], 0.0, 0.0
    start = time.perf_counter()
    for i in range(count):
        inp = workload.inputs(seed, i)
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with recorder.patched():
                    pair[traced] = execute(workload, inp, workdir, recorder, i)
            else:
                pair[traced] = execute(workload, inp, workdir)
        plain, traced = pair[False], pair[True]
        untraced_s += plain["seconds"]
        traced_s += traced["seconds"]
        if traced["record"] != plain["record"]:
            plain["failures"].append("traced and untraced outputs differ")
        plain["failures"] += traced["failures"]
        if i >= digest_instances(workload):
            plain["record"] = None
        results.append(plain)
    elapsed = time.perf_counter() - start
    out = finish(workload, seed, results, elapsed)
    metrics = layer_metrics(recorder.spans, count)
    metrics["trace.instances"] = count
    metrics["trace.instances_per_s"] = count / traced_s
    metrics["trace.untraced_instances_per_s"] = count / untraced_s
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    out["layer_metrics"] = metrics
    out["layer_check"] = share_check(workload.name, metrics)
    out["spans"] = len(recorder.spans)
    return out


def finish(workload, seed: int, results: list, elapsed: float) -> dict:
    digest = check_digest(workload, seed, [r["record"] for r in results])
    if digest["match"] is False:
        for r in results[: digest["instances"]]:
            r["failures"].append("output digest differs from the recorded one")
    failures = [
        {"instance": i, "failures": r["failures"]} for i, r in enumerate(results) if r["failures"]
    ]
    return {
        "times": [r["seconds"] for r in results],
        "elapsed": elapsed,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:20],
        "digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workload.inputs(args.seed, 0)
    ready = time.monotonic()
    if args.setup_only:
        speed.warm_up(workload.reference)
        print(json.dumps({"ready": ready, "reference": speed.sample(workload.reference)}))
        return 0
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            recorder = Recorder()
            out = measure_traced(workload, args.seed, args.seconds, workdir, recorder)
            recorder.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            out = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["ready"] = ready
    out["rss_peak_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["python"] = sys.version.split()[0]
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
