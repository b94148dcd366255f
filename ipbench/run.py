#!/usr/bin/env python3
"""Build and run the ipdelta benchmark.

Usage, from the root of a checkout:

    python3 ipbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 ipbench/run.py --selftest --seed <n>

The first call configures and builds ipbench (and the library from src/)
under .bench_build/ in the checkout; later calls only check that the build
is current. Build output goes to stderr, so the benchmark's stdout ends
with its one-line JSON result. Exits non-zero when the build fails or any
output mismatches its expected bytes.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "ipbench")
BINARY = os.path.join(BUILD_DIR, "ipbench")
WORKLOADS = ("release_corpus", "large_image", "ota_fleet", "store_history")
RUN_TIMEOUT_S = 170


def checkout_env():
    """The environment for every child: temporary files (the compiler's
    among them) stay inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "ipbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=checkout_env())
        except OSError as error:
            print(f"ipbench: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("ipbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seconds is None
                              or args.trace is None):
        parser.error("--workload, --seconds and --trace are required")

    if not build():
        return 1

    if args.selftest:
        command = [BINARY, "--selftest", "--seed", str(args.seed)]
    else:
        spans_dir = os.path.join(BUILD_ROOT, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir,
                             f"{args.workload}-seed{args.seed}.json")
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", repr(args.seconds),
                   "--trace", args.trace,
                   "--spans-out", spans,
                   "--work-dir", os.path.join(BUILD_ROOT, "work")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, env=checkout_env(),
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"ipbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
