#!/usr/bin/env python3
"""The benchmark's own tests, at tiny size.

    python3 perfbench/test_perfbench.py [--binary PATH]

Without --binary the benchmark is built first (as perfbench/run.py does).
Checks that every metric BENCHMARK.json names is printed with its unit,
that one seed twice gives identical virtual-time metrics (and that
twin-sharded's equal twin-fanout's), that each correctness gate bites, that
twin-churn's final assignment matrix equals Controller::reconfigure_full()
fed the same reports, and that run.py refuses a checkout without sources.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
VIRTUAL = ("delivery_p50_ms", "delivery_tail_ms", "billed_usd",
           "constraint_met_pct")
TWINS = ("twin-fanout", "twin-sharded", "twin-churn")
BINARY = None


def run(workload, seed=3, trace=0, *extra):
    proc = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra,
         "--trace-out", tempfile.gettempdir()],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, result


class MetricsTest(unittest.TestCase):
    def test_every_metric_printed_with_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = run(workload, 3, trace)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name in want:
                        self.assertRegex(
                            proc.stdout, re.compile(
                                "^" + re.escape(name) + r"\s", re.M))

    def test_per_layer_list_matches_binary(self):
        names = re.findall(r'PERFBENCH_LAYER_METRIC\("([^"]+)"',
                           (HERE / "src" / "per_layer_metrics.inc").read_text())
        self.assertEqual(names, [m["name"] for m in SPEC["per_layer"]])


class DeterminismTest(unittest.TestCase):
    def test_same_seed_same_virtual_metrics(self):
        for workload in TWINS:
            with self.subTest(workload=workload):
                _, a = run(workload, 5)
                _, b = run(workload, 5)
                for name in VIRTUAL:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_sharded_equals_single_threaded(self):
        _, fanout = run("twin-fanout", 9)
        _, sharded = run("twin-sharded", 9)
        for name in VIRTUAL:
            self.assertEqual(fanout["metrics"][name]["value"],
                             sharded["metrics"][name]["value"], name)


class GateTest(unittest.TestCase):
    def test_unregistered_subscriber_fails_the_run(self):
        proc, result = run("twin-fanout", 3, 0,
                           "--sabotage", "unregistered-subscriber")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("GATE FAILED: failed_pct is not 0", proc.stdout)

    def test_perturbed_sharded_digest_fails_the_run(self):
        proc, result = run("twin-sharded", 3, 0, "--sabotage", "digest")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertIn("digest differs", proc.stdout)

    def test_churn_matrix_equals_full_scan(self):
        proc, result = run("twin-churn", 4, 0, "--check-full")
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertTrue(result["correct"])
        self.assertIn("assignment matrix identical", proc.stdout)


class RunnerTest(unittest.TestCase):
    def test_refuses_checkout_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "twin-fanout", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


def main():
    global BINARY
    args = sys.argv[1:]
    if "--binary" in args:
        i = args.index("--binary")
        BINARY = Path(args[i + 1])
        del args[i:i + 2]
    else:
        sys.path.insert(0, str(HERE))
        import run as runner
        BINARY = runner.build()
    unittest.main(argv=[sys.argv[0], *args])


if __name__ == "__main__":
    main()
