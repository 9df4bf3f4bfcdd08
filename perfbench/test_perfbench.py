#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Checks the percentile helper, that run.py's metric tables match
BENCHMARK.json, and that a tiny-scale smoke of every workload, untraced
and traced, passes its output checks and emits exactly the metrics
BENCHMARK.json names.  The smoke runs build the driver on first use.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


class PercentileTest(unittest.TestCase):
    def test_keeps_ten_samples_beyond_p90(self):
        values = list(range(1, 101))
        self.assertEqual(bench.percentile(values, 0.9), 90)
        beyond = [v for v in values if v > bench.percentile(values, 0.9)]
        self.assertGreaterEqual(len(beyond), bench.MIN_BEYOND)

    def test_refuses_too_few_samples(self):
        with self.assertRaises(ValueError):
            bench.percentile(list(range(99)), 0.9)
        with self.assertRaises(ValueError):
            bench.percentile(list(range(15)), 0.5)

    def test_median_is_nearest_rank(self):
        values = [float(v) for v in range(40, 0, -1)]
        self.assertEqual(bench.percentile(values, 0.5), 20.0)

    def test_rejects_bad_quantile(self):
        with self.assertRaises(ValueError):
            bench.percentile(list(range(200)), 1.0)


class SpecTest(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        for section, units in (("end_to_end", bench.END_TO_END_UNITS),
                               ("per_layer", bench.LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            self.assertEqual(declared, units, section)

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         bench.WORKLOADS)


class SmokeTest(unittest.TestCase):
    def smoke(self, workload, trace):
        command = [sys.executable, str(bench.HERE / "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
        result = subprocess.run(command, cwd=bench.ROOT, capture_output=True,
                                text=True, timeout=900, check=False)
        self.assertEqual(result.returncode, 0,
                         result.stdout[-3000:] + result.stderr[-3000:])
        out = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(out["correct"])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()},
                         declared)
        for name, metric in out["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for workload in bench.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.smoke(workload, trace)


if __name__ == "__main__":
    unittest.main()
