#!/usr/bin/env python3
"""Build the λFS simulator benchmark and run one of its workloads.

Run from the repository root:

    python3 perfbench/run.py --workload lfs-read --seed 1 --seconds 10 --trace 0

The script configures and builds perfbench/ (a CMake package that compiles
the simulator library from src/) into .bench_build/perfbench, then runs the
lfsbench driver once. Build output goes to standard error. The driver prints
its metric tables and, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. If the build fails, or
the driver fails a correctness check, the script prints no result and exits
non-zero.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("lfs-read", "lfs-write", "spotify", "hops-read")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "lfsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: lfsbench ran over {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines(keepends=True)
    if proc.returncode != 0:
        sys.stdout.write("".join(l for l in lines if not l.startswith("{")))
        print(f"perfbench: lfsbench exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        keys_ok = set(result) == {"correct", "attempted", "failed",
                                  "metrics"}
    except (IndexError, ValueError):
        keys_ok = False
    if not keys_ok or result["correct"] is not True:
        print("perfbench: lfsbench printed no valid result line",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
