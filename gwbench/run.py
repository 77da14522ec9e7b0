#!/usr/bin/env python3
"""Build and run the Lumen gateway benchmark.

    python3 gwbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 gwbench/run.py --selftest

Run from the repository root. The first call configures and builds the
benchmark (and the Lumen libraries it links) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Result files and span files land in
<build dir>/gwbench-out/. --selftest runs the seed-discipline test.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("replay-kitsune-1shard", "socket-kitsune-2shard",
             "replay-window-1shard")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("gwbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(targets):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "gwbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return root, build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        _, build_dir = build(["gwbench_seed_test"])
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "gwbench_seed_test")]).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be within 1..60")
    root, build_dir = build(["gwbench"])
    out_dir = os.path.join(root, "gwbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "gwbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("benchmark exited with %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("benchmark printed no result line")
    if not result["correct"]:
        fail("verdict check failed")


if __name__ == "__main__":
    main()
