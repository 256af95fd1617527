#!/usr/bin/env python3
"""Self-test of the benchmark: all three workloads through the same code as
a real run, on tiny graphs, in both modes.

    python3 colorbench/test_run.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

# Counters that must repeat exactly between runs of one seed.
DETERMINISTIC = ("order.adg_iters", "core.jp_levels", "core.itr_conflicts", "core.itr_rounds")


def run_tiny(workload, trace, seed=7):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
        "--trace", str(trace), "--tiny",
    ]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} failed:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_benchmark_json_matches_the_emitted_metrics(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])

    def test_every_workload_emits_every_metric(self):
        counters = {}
        for workload in bench.WORKLOADS:
            for trace, names in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    r = run_tiny(workload, trace)
                    self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertGreaterEqual(r["attempted"], 1)
                    self.assertEqual(r["failed"], 0)
                    self.assertEqual(set(r["metrics"]), set(names))
                    for name, m in r["metrics"].items():
                        self.assertEqual(m["unit"], names[name], name)
                        self.assertTrue(math.isfinite(m["value"]), name)
                    if trace:
                        self.assertEqual(r["metrics"]["fail_frac"]["value"], 0)
                        self.assertEqual(r["metrics"]["trace.dropped"]["value"], 0)
                        counters[workload] = {k: r["metrics"][k]["value"] for k in DETERMINISTIC}
        again = run_tiny("cliques-text", 1)
        self.assertEqual(
            {k: again["metrics"][k]["value"] for k in DETERMINISTIC}, counters["cliques-text"]
        )

    def test_unknown_workload_fails_without_a_result(self):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
