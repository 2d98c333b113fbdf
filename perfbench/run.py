#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sssp-rmat --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # the harness's own unit tests

Run from the repository root. The engine and the driver are built from
source into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr, so the last line of stdout is the driver's
JSON result. Exits non-zero, printing no result, when the build fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sssp-rmat", "tc-er", "serve-mixed")
# A run measures for --seconds and then checks its answers; anything past
# this is a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"


def build(target):
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not ((out / "Makefile").exists() or (out / "build.ninja").exists()):
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", str(out), "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        return None
    return out / target


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness unit tests")
    args = parser.parse_args()

    if args.test:
        binary = build("perfbench_test")
        return 2 if binary is None else subprocess.run([str(binary)]).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    binary = build("rasql_perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(build_dir())]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
