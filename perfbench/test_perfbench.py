#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

They check that every metric BENCHMARK.json names is emitted, finite and
carries its unit; that the traced and untraced passes simulate identical
outputs; and that the tenant_sweep matrix does not depend on the worker
count. Each workload runs as short as it can (--seconds 1: a warm-up pass and
one timed pass), so the whole file takes a few minutes after the build.
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
import run  # noqa: E402  (the benchmark's own build helper)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

_results = {}


def bench(workload, trace):
    """stdout lines of one single-pass run, cached across tests."""
    key = (workload, trace)
    if key not in _results:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            raise AssertionError("%s trace=%d exited %d:\n%s" %
                                 (workload, trace, out.returncode, out.stderr[-4000:]))
        _results[key] = out.stdout.strip().splitlines()
    return _results[key]


class BenchmarkTest(unittest.TestCase):
    def check_result(self, workload, trace, catalog):
        lines = bench(workload, trace)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], workload)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in catalog})
        for m in catalog:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if trace == 0:
                self.assertGreater(got["value"], 0, m["name"])

    def test_every_metric_is_emitted_finite_with_its_unit(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(w["name"], 0, SPEC["end_to_end"])
                self.check_result(w["name"], 1, SPEC["per_layer"])

    def test_traced_pass_simulates_the_same_outputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                digest = [l for l in bench(w["name"], 0) if l.startswith("digest ")]
                traced = [l for l in bench(w["name"], 1) if l.startswith("digest ")]
                self.assertEqual(len(digest), 1)
                self.assertEqual(digest, traced)

    def test_sweep_matrix_is_identical_at_one_and_two_workers(self):
        exe = run.build(run.build_dir())
        matrices = [
            subprocess.run([exe, "--sweep-matrix", str(n), "--seed", "1"], check=True,
                           capture_output=True, timeout=600).stdout
            for n in (1, 2)
        ]
        self.assertTrue(matrices[0])
        self.assertEqual(matrices[0], matrices[1])


if __name__ == "__main__":
    unittest.main()
