#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs each workload once per seed through run.py (BENCHMARK.json's
run_seconds, --trace 0), in one or more sets of the same seeds. Per metric
and set it prints the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)); from the second set on, also
how much worse that set's median is than the first set's. Both are printed
next to the bound BENCHMARK.json declares. Usage, from the root of a
checkout:

    python3 ipbench/spread.py [--workloads a,b] [--seeds 1-10] [--sets 2]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return result["metrics"], elapsed


def worse_by(first, later, better):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    declared = {m["name"]: m for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args()

    # sets[s][workload][metric] -> values over the seeds
    sets = []
    for number in range(args.sets):
        values = {}
        for workload in args.workloads.split(","):
            walls = []
            for seed in seed_list(args.seeds):
                metrics, elapsed = run(workload, seed, bench["run_seconds"])
                walls.append(elapsed)
                for name, metric in metrics.items():
                    values.setdefault(workload, {}).setdefault(
                        name, []).append(metric["value"])
            print(f"set {number + 1}, {workload}: {len(walls)} seeds, each "
                  f"run {min(walls):.0f}-{max(walls):.0f} s (build check "
                  f"included)", flush=True)
        sets.append(values)

    worst = 0.0
    for workload in args.workloads.split(","):
        print(workload)
        for name, metric in declared.items():
            bound = metric["bound"]
            cells = []
            first_median = None
            for values in sets:
                vals = values[workload][name]
                mid = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / mid
                worst = max(worst, spread / bound)
                cell = f"median {mid:11.5g} spread {spread:6.1%}"
                if first_median is None:
                    first_median = mid
                else:
                    change = worse_by(first_median, mid, metric["better"])
                    worst = max(worst, change / bound)
                    cell += f" worse {change:+6.1%}"
                cells.append(cell)
            print(f"  {name:15s} bound {bound:.0%} | " + " | ".join(cells))
    print(f"largest spread or worsening / bound: {worst:.2f}")


if __name__ == "__main__":
    main()
