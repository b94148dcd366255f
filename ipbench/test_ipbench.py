#!/usr/bin/env python3
"""Tests of the ipdelta benchmark itself.

    python3 ipbench/test_ipbench.py            # all tests, about 3 minutes
    python3 ipbench/test_ipbench.py -k counts  # one group

* Exact counts (delta_ratio and the per-layer counts of the inplace,
  device, delta, net and store layers) repeat identically across two runs
  with the same seed, on every workload.
* The self-test: the large_image artifact is byte-identical at
  parallelism 1 and min(4, nproc), and the traced run's decomposed build
  equals Pipeline::build_inplace on both build workloads.
* In a tree holding only BENCHMARK.json and the benchmark's directory,
  the command fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("release_corpus", "large_image", "ota_fleet", "store_history")
SECONDS = "2"

# Metrics that are counts of the work done, not times: they depend only
# on the seed's inputs.
EXACT_END_TO_END = ("delta_ratio",)
EXACT_PER_LAYER = (
    "delta.segments", "delta.copy_cmds", "delta.add_cmds", "delta.add_bytes",
    "inplace.crwi_edges", "inplace.cycles_found", "inplace.copies_converted",
    "inplace.bytes_converted",
    "device.flash_bytes_written", "device.flash_pages_written",
    "device.ram_high_water", "device.journal_records",
    "device.flash_bytes_per_byte",
    "server.builds", "net.shed", "net.wire_bytes_per_update",
    "store.bytes_appended", "store.folds",
    "store.chain_hops_per_reconstruct",
)


def run_bench(workload, seed, trace, root=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(root, "ipbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    return done


def metrics(workload, seed, trace):
    done = run_bench(workload, seed, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: v["value"] for k, v in result["metrics"].items()}


class ExactCountsRepeat(unittest.TestCase):
    def test_counts_identical_across_same_seed_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for trace, names in ((0, EXACT_END_TO_END),
                                     (1, EXACT_PER_LAYER)):
                    first = metrics(workload, 11, trace)
                    second = metrics(workload, 11, trace)
                    for name in names:
                        self.assertEqual(first[name], second[name],
                                         f"{workload} {name}")


class SelfTest(unittest.TestCase):
    def test_parallelism_and_decomposition(self):
        done = subprocess.run([sys.executable, RUN, "--selftest",
                               "--seed", "5"],
                              cwd=ROOT, capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertNotIn("FAIL", done.stdout)


class BareTree(unittest.TestCase):
    def test_fails_without_the_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-tree")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "ipbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run_bench("release_corpus", 1, 0, root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
