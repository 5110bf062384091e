#!/usr/bin/env python3
"""Runs the lock benchmark on one workload and prints its metrics.

    python3 rwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. It builds the `rwbench` package
(twice: once plain, once with the `telemetry` feature for the counts),
runs the workload for about `--seconds` seconds, prints the environment,
every metric with its quartiles, and, with `--trace 1`, the ladder check.
The last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the per-layer ones. See README.md in this directory for what each one
measures and which layer should move which end-to-end metric.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ("uncontended", "read_mostly", "mixed")
LOCKS = ("goll", "foll", "roll")
WRAPPERS = ("bravo", "tuned", "cohort", "adaptive")
# Share of a traced run's seconds given to the ladder; the rest goes to
# the counts build.
LAYER_SHARE = 0.8
# All measuring processes of one run must end within this many seconds
# of the end of the build; a process still running then is killed.
MEASURE_BUDGET = 150


def end_to_end_metrics():
    """(name, unit) of every end-to-end metric, as `--trace 0` prints them."""
    metrics = [("setup_s", "s")]
    for lock in LOCKS:
        metrics.append((f"{lock}.acq_per_s", "1/s"))
    for op in ("read", "write"):
        for lock in LOCKS:
            metrics.append((f"{lock}.{op}_wait_p99_ns", "ns"))
    return metrics


def per_layer_metrics():
    """(name, unit) of every per-layer metric, as `--trace 1` prints them."""
    metrics = [("trace.timer_ns", "ns"), ("util.cas_ns", "ns")]
    for name in ("arrive", "depart", "direct", "tree", "close_open"):
        metrics.append((f"csnzi.{name}_ns", "ns"))
    metrics += [("csnzi.tree_share", "ratio"), ("csnzi.arrive_fail_share", "ratio")]
    for lock in LOCKS:
        for call in ("lock_read", "unlock_read", "lock_write", "unlock_write"):
            metrics.append((f"{lock}.{call}_ns", "ns"))
    for wrapper in WRAPPERS:
        metrics += [(f"{wrapper}.read_ns", "ns"), (f"{wrapper}.write_ns", "ns")]
    metrics += [("std.acq_per_s", "1/s"), ("centralized.acq_per_s", "1/s")]
    for lock in LOCKS:
        metrics += [
            (f"{lock}.read_slow_share", "ratio"),
            (f"{lock}.write_slow_share", "ratio"),
            (f"{lock}.root_writes_per_acq", "writes/acq"),
            (f"{lock}.root_cas_fail_share", "ratio"),
        ]
    return metrics


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Builds both variants; returns {variant: executable}."""
    base = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    binaries = {}
    for variant, features in (("plain", []), ("telemetry", ["--features", "telemetry"])):
        target = base if variant == "plain" else os.path.join(base, "rwbench-telemetry")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", MANIFEST, "--target-dir", target] + features
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(f"run.py: building the {variant} benchmark failed")
        binaries[variant] = os.path.join(target, "release", "rwbench")
    return binaries


def measure(binary, mode, args, seconds, deadline):
    """Runs one measuring process; returns its JSON result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the {mode} run did not end within {MEASURE_BUDGET} s")
    if proc.returncode != 0:
        sys.exit(f"run.py: {mode} run failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, first quartile, third quartile) of a series."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, cwd=ROOT, timeout=30)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def source_digest():
    """SHA-256 over the library sources the benchmark builds, so that a
    result can be tied to its code without a git checkout."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "Cargo.toml")]
    for top in ("crates", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".py"))]
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def print_environment(args, runs):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = command_output(["git", "rev-parse", "--short=12", "HEAD"])
    first = runs[0]
    print(f"env: nproc={first['nproc']} commit={commit} source={source_digest()} "
          f"rustc=\"{command_output(['rustc', '--version'])}\"")
    print(f"run: workload={args.workload} threads={first['threads']} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{r['mode']}_reps={r['reps']}" for r in runs))


def print_metric(name, unit, values, series):
    median, q1, q3 = spread(values)
    line = f"  {name:28s} {median:14.6g} {unit:10s} q1 {q1:.6g} q3 {q3:.6g} n={len(values)}"
    if name.endswith("_p99_ns"):
        p50 = spread(series[name.replace("_p99_", "_p50_")])[0]
        samples = spread(series[name.replace("_p99_ns", "_samples")])[0]
        line += f"  p50 {p50:.6g} ns, {samples:.0f} samples/window"
    print(line)


def print_ladder(series, threads):
    """Each lock's timed rungs beside its untraced per-operation cost."""
    med = {name: spread(values)[0] for name, values in series.items()}
    floor = med["trace.timer_ns"]
    print(f"ladder (each rung includes one clock read of {floor:.2f} ns; "
          "it adds up where one thread runs):")
    for lock in LOCKS:
        reads = med[f"{lock}.read_share"]
        rungs = (reads * (med[f"{lock}.lock_read_ns"] + med[f"{lock}.unlock_read_ns"])
                 + (1 - reads) * (med[f"{lock}.lock_write_ns"] + med[f"{lock}.unlock_write_ns"]))
        net = rungs - 2 * floor
        per_op = threads * 1e9 / med[f"{lock}.acq_per_s"]
        overhead = 1 - med[f"{lock}.traced_acq_per_s"] / med[f"{lock}.acq_per_s"]
        print(f"  {lock}: rungs {rungs:.2f} ns/op, net of clock reads {net:.2f} ns/op; "
              f"untraced {per_op:.2f} ns/op per thread; outside the rungs {per_op - net:.2f} ns; "
              f"tracing overhead {100 * overhead:.1f}% of acq_per_s")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 < args.seconds <= 100:
        parser.error("--seconds must be in (0, 100]")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")

    binaries = build()
    deadline = time.monotonic() + MEASURE_BUDGET
    if args.trace:
        runs = [measure(binaries["plain"], "layers", args, args.seconds * LAYER_SHARE, deadline),
                measure(binaries["telemetry"], "counts", args,
                        args.seconds * (1 - LAYER_SHARE), deadline)]
        metrics = per_layer_metrics()
    else:
        runs = [measure(binaries["plain"], "e2e", args, args.seconds, deadline)]
        metrics = end_to_end_metrics()

    series = {}
    for run in runs:
        series.update(run["series"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and attempted > 0 and all(r["records_ok"] for r in runs)

    print_environment(args, runs)
    print("metrics (median over repetitions; quartiles q1, q3; n values):")
    result = {}
    for name, unit in metrics:
        values = series.get(name)
        if not values or not all(math.isfinite(v) for v in values):
            log(f"run.py: metric {name} is missing or not finite")
            correct = False
            continue
        print_metric(name, unit, values, series)
        result[name] = {"value": statistics.median(values), "unit": unit}
    if not args.trace:
        correct = correct and all(m["value"] > 0 for m in result.values())
    else:
        print_ladder(series, runs[0]["threads"])
    print(f"checks: attempted={attempted} failed={failed} "
          f"records_match={all(r['records_ok'] for r in runs)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))


if __name__ == "__main__":
    main()
