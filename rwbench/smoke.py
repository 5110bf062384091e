#!/usr/bin/env python3
"""Smoke test of the lock benchmark.

    python3 rwbench/smoke.py

Run it from the root of the repository. Every workload of run.py runs
for one second under two seeds, with and without tracing. The test fails
unless every run exits cleanly, reports `"correct": true` with no failed
operation, and emits exactly the metrics BENCHMARK.json names for that
mode, with their units.
"""

import json
import math
import os
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                         "--seconds", "1", "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=300)
                label = f"{workload} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    problems.append(f"{label}: exit code {proc.returncode}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                problems += check(label, result, expected[trace], positive=trace == 0)
                print(f"ok  {label}: {result['attempted']} operations checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


def check(label, result, expected, positive):
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        value = metric["value"]
        if metric["unit"] != expected.get(name, metric["unit"]):
            problems.append(f"{label}: {name} unit {metric['unit']}, expected {expected[name]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            problems.append(f"{label}: {name} = {value}")
        elif positive and value == 0:
            problems.append(f"{label}: {name} is 0")
    return problems


if __name__ == "__main__":
    main()
