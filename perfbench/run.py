#!/usr/bin/env python3
"""dnsshield benchmark: builds the kernel from this checkout, runs one
workload, checks its simulated output, and prints one JSON result line.

    python3 perfbench/run.py --workload hybrid_week --seed 105 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of untraced runs; --trace 1 runs
the traced runner once and reports the per-layer split. The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the line before
it is the full record (host, raw kernel output, checks, and the mapping
from the retired BENCH_*.json fields). The record is also written under
the build directory ($CARGO_TARGET_DIR, default .bench_build).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hybrid_week", "renew_week", "fleet_outage")
DEFAULT_SEED = 105  # the seed whose counters are pinned (pinned.json)
KERNEL_TIMEOUT_S = 170

# Where the retired ad-hoc bench files' fields went.
OLD_BENCH_FIELDS = {
    "BENCH_hotpath.wall_seconds":
        "hybrid_week queries_per_s (run by hand, not in BENCHMARK.json)",
    "BENCH_hotpath.queries": "record.kernel.repetitions[].queries",
    "BENCH_hotpath.allocs_per_query":
        "hybrid_week resolver.allocs_per_query (resolve calls only)",
    "BENCH_hotpath.reports_identical": "failed (pinned / repeat check)",
    "BENCH_hotpath.baseline_*, speedup, alloc_reduction":
        "dropped: compare the same workload on parent and child commits",
    "BENCH_fleet.wall_seconds_fleet": "fleet_outage queries_per_s",
    "BENCH_fleet.wall_seconds_single": "dropped",
    "BENCH_fleet.vm_hwm_full_kb, vm_hwm_half_kb": "fleet_outage peak_rss_mb",
    "BENCH_fleet.allocs_per_msg_fleet":
        "fleet_outage resolver.allocs_per_query / resolver.msgs_per_query",
    "BENCH_fleet.sr_failure_rate_window":
        "pinned counters window.sr_failures / window.sr_queries",
    "BENCH_fleet.reports_identical, partition_exact":
        "failed (pinned / repeat check, traced parity)",
    "BENCH_parallel.wall_seconds_serial, wall_seconds_parallel":
        "fleet_outage queries_per_s (shard jobs = nproc) and "
        "core.shard_s_p50 / core.shard_s_max (serial traced shards)",
    "BENCH_parallel.hardware_concurrency": "record.host.nproc",
    "BENCH_parallel.parallel_meaningful": "dropped: record.host.nproc",
}


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both kernels; returns the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no dnsshield source tree next to "
                         "perfbench/ (src/CMakeLists.txt missing)")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            run_quiet(["cmake", "-S", HERE, "-B", out,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        run_quiet(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                   "--target", "perfbench_kernel", "perfbench_kernel_traced"])
    return out


def run_quiet(cmd):
    # Build chatter goes to stderr: stdout carries only the result. The
    # compiler's temporary files stay inside the build directory.
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: command failed: {' '.join(cmd)}")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_kernel(binary, args):
    """Runs one kernel process; returns its parsed JSON line or None."""
    cmd = [binary] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=KERNEL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"exit {proc.returncode}: {' '.join(cmd)}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        log("kernel printed no JSON")
        return None


def pinned_counters(workload, scale, seed):
    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f)[scale][workload]


def diff(expected, got):
    keys = sorted(set(expected) | set(got))
    return {k: [expected.get(k), got.get(k)] for k in keys
            if expected.get(k) != got.get(k)}


def check_plain(kernel, pinned):
    """Failed repetitions: each must equal the pin, or (no pin) each other."""
    runs = [r["counters"] for r in kernel["repetitions"]]
    if pinned is not None:
        bad = [diff(pinned, c) for c in runs]
        return sum(1 for d in bad if d), [d for d in bad if d]
    if all(c == runs[0] for c in runs):
        return 0, []
    return len(runs), [diff(runs[0], c) for c in runs[1:]]


def check_traced(kernel, pinned):
    """The untraced reference against the pin, the traced run against it."""
    ref = kernel["untraced"]["counters"]
    traced = kernel["traced"]["counters"]
    failed, diffs = 0, []
    if pinned is not None and ref != pinned:
        failed += 1
        diffs.append(diff(pinned, ref))
    if traced != ref:
        failed += 1
        diffs.append(diff(ref, traced))
    return failed, diffs


def slow_run_s(reps):
    """Run time at the upper quartile of the host's slowness in the run.

    Every repetition is split at the same event counts (a fleet
    repetition is one segment), so segment k is the same simulated work
    in each. Each segment's time is divided by that segment's median over
    the repetitions; the run time is the sum of those medians times the
    upper quartile of the ratios. The host's speed has a slow baseline
    with fast bursts of 15 to 60 s that some runs catch and others miss
    (perfbench/README.md); the upper quartile reads the baseline.
    """
    segments = [r["segments_s"] for r in reps]
    if len({len(s) for s in segments}) != 1:
        raise SystemExit("perfbench: repetitions split into different "
                         "numbers of segments")
    typical = [statistics.median(column) for column in zip(*segments)]
    ratios = [t / c for s in segments for t, c in zip(s, typical)]
    slow = statistics.quantiles(ratios, n=4, method="inclusive")[2]
    return sum(typical) * slow


def plain_metrics(kernel):
    reps = kernel["repetitions"]
    return {
        "setup_s": statistics.median(kernel["setup_s"]),
        "queries_per_s": reps[0]["queries"] / slow_run_s(reps),
        "peak_rss_mb": kernel["peak_rss_kb"] / 1024.0,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = load_benchmark_spec()
    out = build()
    tag = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    kernel_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--scale", args.scale]
    if args.trace:
        spans = os.path.join(results, tag + ".spans.jsonl")
        kernel_args += ["--mode", "traced", "--spans-out", spans]
        binary = os.path.join(out, "perfbench_kernel_traced")
    else:
        binary = os.path.join(out, "perfbench_kernel")

    kernel = run_kernel(binary, kernel_args)
    pinned = pinned_counters(args.workload, args.scale, args.seed)
    if kernel is None:
        attempted, failed, diffs, metrics = 1, 1, ["kernel failed"], {}
    elif args.trace:
        attempted = 2
        failed, diffs = check_traced(kernel, pinned)
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: kernel["layers"][name] for name in wanted}
    else:
        attempted = len(kernel["repetitions"])
        failed, diffs = check_plain(kernel, pinned)
        metrics = plain_metrics(kernel)

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": failed == 0 and kernel is not None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    host = dict(kernel["host"]) if kernel else {}
    host["git_sha"] = git_sha()
    record = {
        "record": {
            "workload": args.workload, "seed": args.seed,
            "scale": args.scale, "trace": args.trace,
            "pinned": pinned is not None, "mismatches": diffs,
            "host": host, "kernel": kernel,
            "old_bench_fields": OLD_BENCH_FIELDS,
        }
    }
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump({**record["record"], "result": result}, f, indent=1)
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
