#!/usr/bin/env python3
"""Builds and runs the SeriGraph job benchmark.

Usage, from the root of a SeriGraph checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds perfbench/ (a CMake package compiling ../src) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload and prints
its result as the last line of standard output:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

The metrics are the end_to_end list of BENCHMARK.json with --trace 0 and
the per_layer list with --trace 1; a run whose metric names or units
disagree with BENCHMARK.json exits non-zero without a result.

--selftest builds everything, runs the C++ self-test (answer-check
negative controls, span folding, predicted zeros on tiny workloads) and
a tiny pass of every workload in both trace modes through this script's
own result checks.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "pregel", "engine.h")):
        fail(f"no SeriGraph sources next to {HERE}; run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "-j", jobs, "--target", *targets]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        # Build logs go to stderr: standard output carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(out, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns its parsed result or exits non-zero."""
    scratch = os.path.join(out, f"scratch-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        proc = subprocess.run(
            [os.path.join(out, "perfbench"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--scratch", scratch, *extra],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result")
    result = json.loads(lines[-1])
    check_result(result, declared_metrics(trace))
    return result


def check_result(result, declared):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    if result["attempted"] < 1:
        fail("no job was attempted")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        fail(f"metrics disagree with BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, or units differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(
                m["value"]):
            fail(f"metric {name} is not a finite number")


def selftest():
    out = build(["perfbench", "perfbench_selftest"])
    code = subprocess.run([os.path.join(out, "perfbench_selftest"),
                           os.path.join(out, "selftest-scratch")]).returncode
    if code != 0:
        fail(f"perfbench_selftest exited with code {code}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            result = run_workload(
                out, workload, seed=7, seconds=0, trace=trace,
                extra=("--scale", "0.05"))
            if result["failed"] != 0 or not result["correct"]:
                fail(f"tiny {workload} (trace {trace}) failed a job")
            print(f"tiny {workload} trace={trace}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['attempted']} jobs, 0 failed")
    print("perfbench selftest passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    out = build(["perfbench"])
    result = run_workload(out, args.workload, args.seed, args.seconds,
                          args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
