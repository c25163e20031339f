#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs one
workload in its own process.

    python3 perfbench/run.py --workload train-cora --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build, relative to the checkout root)/perfbench; the
first run configures and builds, later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a result with any other set is refused.
Exits 1, printing no result, when the build or the run fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build(directory):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(directory)])
    steps.append(["cmake", "--build", str(directory), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return directory / "perfbench"


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    listed = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def check(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a count")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        fail(f"metric set differs: missing {missing}, unexpected {extra}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected[name]:
            fail(f"{name}: unit {metric.get('unit')!r}, want {expected[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{name}: value {value!r} is not a finite number")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace)
    binary = build(build_dir())
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{args.workload} exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"result line is not JSON: {e}")
    check(result, expected)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
