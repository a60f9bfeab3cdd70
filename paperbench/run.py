#!/usr/bin/env python3
"""Paper-regime benchmark of libsmn: build, run one workload, relay the result.

    python3 paperbench/run.py --workload bcast_r2 --seed 7 --seconds 20 --trace 0

On first use this configures and builds paperbench/ (which builds libsmn from
this checkout) into .bench_build/ at the checkout root; later runs only check
that the build is current. It then runs the benchmark binary and passes its
report through. The last line of standard output is the JSON result and the
exit code is the binary's. Build output goes to standard error.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def build():
    BUILD.mkdir(exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        # One build at a time, should two runs start together in a checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "paperbench", "-j", jobs],
                       stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"paperbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(BUILD / "paperbench"), "--workload", args.workload, "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--spans", str(BUILD / f"spans-{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as err:
        sys.stdout.write(err.stdout.decode() if isinstance(err.stdout, bytes) else err.stdout or "")
        print(f"paperbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except (IndexError, ValueError):
        well_formed = False
    if not well_formed:
        print("paperbench: the last line of the report is not a result", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
