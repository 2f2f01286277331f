#!/usr/bin/env python3
"""Builds and runs the itcfs campus benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload campus-scale --seed 1 --seconds 60 --trace 0

Configures perfbench/CMakeLists.txt (the repository's src/ libraries plus the
driver) into .bench_build, builds it, runs perfbench/itcfs_campus_bench.cc's
program and relays its output. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
spans of the traced iteration are written to
.bench_build/spans-<workload>-<seed>.jsonl.

Build logs go to standard error. If the build or the run fails, the script
exits non-zero and prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TARGET = "itcfs_campus_bench"
RUN_TIMEOUT_S = 170


def build():
    cmake = shutil.which("cmake")
    if cmake is None:
        sys.exit("perfbench: cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = []  # the cache already fixes the generator
    steps = [
        [cmake, "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release", *generator],
        [cmake, "--build", BUILD_DIR, "--target", TARGET, "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return os.path.join(BUILD_DIR, TARGET)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans-out",
                    os.path.join(BUILD_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    # The driver runs the simulation on one thread. Keeping it on one CPU
    # spares it migrations between CPUs, which made host times noisier.
    cpu = max(os.sched_getaffinity(0))
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S,
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")

    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        sys.exit(f"perfbench: run printed no result (exit {run.returncode})")
    # A failed check still prints its result, with "correct": false.
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
