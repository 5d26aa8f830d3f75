#!/usr/bin/env python3
"""Build the HitSched benchmark and run one workload.

Run from the repository root:

  python3 hitbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 hitbench/run.py --self-test

The first call configures and builds an optimised (Release) binary from
hitbench/CMakeLists.txt, which compiles the library sources in src/, under
$CARGO_TARGET_DIR/hitbench (default .bench_build/hitbench); later calls only
rebuild what changed.  Build output goes to stderr.  The workload runs as its
own process; its last stdout line is the JSON result.  With --trace 1 the
spans of the traced runs are written to <build dir>/traces/.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hitbench")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the checks' own tests")
    args = parser.parse_args()

    try:
        if args.self_test:
            return subprocess.run([build("hitbench_selftest")], timeout=RUN_TIMEOUT_S).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build("hitbench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"hitbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"hitbench: workload exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
