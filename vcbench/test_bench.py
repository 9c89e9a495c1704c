#!/usr/bin/env python3
"""Self-test of the benchmark on seconds-long reduced presets (--smoke).

    python3 vcbench/test_bench.py        # from the repository root, ~2 min

For each workload it checks that an untraced and a traced run pass their
output checks and the replay's self-consistency check, and print every
metric BENCHMARK.json names with its unit. It then checks that both checks
fail, with a nonzero exit, when the run is perturbed on purpose (--perturb).
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
# Every workload vcbench knows, including the pooled one that BENCHMARK.json
# leaves out (README.md says why).
WORKLOADS = ["img-p5c5t2-serial", "img-p3c3t8-pool4", "ts-fleet1k-q8"]


def run(workload, trace, *extra):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "vcbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]), p.stdout + p.stderr


class Smoke(unittest.TestCase):
    def check_metrics(self, result, names):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in names})
        for m in names:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_workloads_pass_their_checks(self):
        for w in WORKLOADS:
            for trace, names in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    rc, result, log = run(w, trace)
                    self.assertEqual(rc, 0, log)
                    self.assertTrue(result["correct"], log)
                    self.assertEqual(result["failed"], 0, log)
                    self.assertGreaterEqual(result["attempted"], 2 - trace)
                    self.check_metrics(result, names)
                    self.assertIn("params_hash=", log)
                    self.assertIn("metrics_fingerprint=", log)

    def test_output_check_catches_differing_outputs(self):
        rc, result, log = run("ts-fleet1k-q8", 0, "--perturb")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("outputs differ", log)

    def test_replay_check_catches_drift(self):
        rc, result, log = run("ts-fleet1k-q8", 1, "--perturb")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertIn("replay drift: tensor.gemm_calls", log)
        self.assertIn("replay drift: core.validations", log)


if __name__ == "__main__":
    unittest.main(verbosity=2)
