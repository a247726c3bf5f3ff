#!/usr/bin/env python3
"""Fast self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

It runs every workload at its smallest size (--small, one second) with
--trace 0 and --trace 1 and checks that the result line has exactly the
keys the benchmark contract names, that every metric BENCHMARK.json
lists is printed with its unit, and that all checks pass.  It then runs
every workload with --wrong-expected (one expected value corrupted) and
checks that the run reports a failed check, and it checks the CLI: --help
and unknown flags exit 2, and a directory holding only BENCHMARK.json
and the benchmark's files exits non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# shpaths_t1 runs on demand only (README.md, "Workloads") but is tested
# like the workloads BENCHMARK.json lists.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["shpaths_t1"]


def run_bench(*args, cwd=ROOT, script=None):
    script = script or (ROOT / "perfbench" / "run.py")
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class SmallRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        done = run_bench("--workload", workload, "--seed", "7", "--seconds",
                         "1", "--trace", str(trace), "--small")
        self.assertEqual(done.returncode, 0, done.stderr)
        result = result_of(done)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in want})
        for metric in want:
            got = result["metrics"][metric["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, metric["name"])
        return result

    def test_every_workload_prints_every_metric(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace)

    def test_wrong_expected_value_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run_bench("--workload", workload, "--seconds", "1",
                                 "--trace", "0", "--small", "--wrong-expected")
                self.assertEqual(done.returncode, 0, done.stderr)
                result = result_of(done)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertIn("check failed", done.stderr)


class Cli(unittest.TestCase):
    def test_help_and_unknown_flags_exit_2(self):
        for args in (["--help"], ["--workload", "gauss_t2", "--bogus"],
                     ["--workload", "nope"], ["--workload", "gauss_t2",
                                              "--trace", "2"]):
            with self.subTest(args=args):
                done = run_bench(*args)
                self.assertEqual(done.returncode, 2)
                self.assertEqual(done.stdout, "")
                self.assertIn("usage:", done.stderr)

    def test_benchmark_files_alone_fail_without_a_result(self):
        bare = ROOT / ".bench_build" / "selftest_bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        done = run_bench("--workload", WORKLOADS[0], "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=bare,
                         script=bare / "perfbench" / "run.py")
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
