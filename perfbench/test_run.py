#!/usr/bin/env python3
"""The benchmark's own test: runs every workload at smoke scale through
perfbench/run.py, traced and untraced, on the pinned seed and on one
other seed, and checks the result contract, the pinned-output check and
the traced-run parity. Also checks that the output checks catch a
mismatch and that the benchmark refuses to run without the source tree.

    python3 perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

OTHER_SEED = 7


def bench(*args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)


class SmokeScale(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = run.load_benchmark_spec()

    def check(self, workload, seed, trace):
        proc = bench("--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace),
                     "--scale", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        record = json.loads(lines[-2])["record"]
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], record["mismatches"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(record["pinned"], seed == run.DEFAULT_SEED)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        for key in ("nproc", "cpu_model", "compiler", "build_type", "git_sha"):
            self.assertIn(key, record["host"])
        return result, record

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, OTHER_SEED):
                with self.subTest(workload=workload, seed=seed, trace=0):
                    result, _ = self.check(workload, seed, 0)
                    for name in ("setup_s", "queries_per_s", "peak_rss_mb"):
                        self.assertGreater(result["metrics"][name]["value"], 0)
                with self.subTest(workload=workload, seed=seed, trace=1):
                    _, record = self.check(workload, seed, 1)
                    kernel = record["kernel"]
                    self.assertEqual(kernel["untraced"]["counters"],
                                     kernel["traced"]["counters"])
                    self.assertGreater(kernel["traced"]["spans"], 0)


class OutputChecks(unittest.TestCase):
    PIN = {"sr_queries": "10", "msgs_sent": "4"}

    def test_plain_against_pin(self):
        good = {"repetitions": [{"counters": dict(self.PIN)}] * 2}
        self.assertEqual(run.check_plain(good, self.PIN)[0], 0)
        bad = {"repetitions": [{"counters": dict(self.PIN, msgs_sent="5")}] * 2}
        self.assertEqual(run.check_plain(bad, self.PIN)[0], 2)

    def test_plain_repeats_must_agree(self):
        reps = [{"counters": dict(self.PIN)},
                {"counters": dict(self.PIN, sr_queries="11")}]
        self.assertEqual(run.check_plain({"repetitions": reps}, None)[0], 2)

    def test_traced_parity(self):
        kernel = {"untraced": {"counters": dict(self.PIN)},
                  "traced": {"counters": dict(self.PIN, msgs_sent="3")}}
        self.assertEqual(run.check_traced(kernel, self.PIN)[0], 1)
        self.assertEqual(run.check_traced(kernel, None)[0], 1)


class SlowRunTime(unittest.TestCase):
    def test_reads_the_slow_state(self):
        fast = {"segments_s": [1.0, 0.5]}
        slow = {"segments_s": [2.0, 1.0]}
        self.assertAlmostEqual(run.slow_run_s([fast, slow]), 3.0)
        self.assertAlmostEqual(run.slow_run_s([fast, fast, fast, slow]),
                               1.5 * 1.25)

    def test_segments_must_line_up(self):
        with self.assertRaises(SystemExit):
            run.slow_run_s([{"segments_s": [1.0]},
                            {"segments_s": [1.0, 1.0]}])


class WithoutSourceTree(unittest.TestCase):
    def test_refuses_to_run(self):
        iso = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"),
                           "perfbench-test", "isolated")
        shutil.rmtree(iso, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(iso, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), iso)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        proc = subprocess.run([sys.executable, "perfbench/run.py",
                               "--workload", run.WORKLOADS[0], "--seed", "1",
                               "--seconds", "1", "--trace", "0"], cwd=iso,
                              env=env, capture_output=True, text=True,
                              timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)
        shutil.rmtree(iso, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
