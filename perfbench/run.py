#!/usr/bin/env python3
"""Builds and runs the simulator benchmark (perfbench).

    python3 perfbench/run.py --workload raw_batch --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. The first run configures and
builds the simulator library from ../src together with the benchmark into
$CARGO_TARGET_DIR (default .bench_build) under the current directory;
later runs only rebuild what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
With --trace 1 the traced spans are written as Chrome trace_event JSON to
<build dir>/perfbench-trace-<workload>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kv_churn", "kv_get", "raw_batch", "raw_threads")
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found at %s" % os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as err:
        fail("build failed: %s" % err)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(
            build_root, "perfbench-trace-%s.json" % args.workload)]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(result.stdout)
    if result.returncode != 0:
        fail("benchmark exited with code %d" % result.returncode)


if __name__ == "__main__":
    main()
