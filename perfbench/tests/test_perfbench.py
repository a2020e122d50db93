#!/usr/bin/env python3
"""Tests of the palmtrace benchmark's contract.

    python3 -m unittest discover -s perfbench/tests

Run from the repository root. Builds the benchmark through run.py on
first use, then runs each workload briefly:

- a truncated PTPK input is counted as a failed op, without a crash;
- every metric name and unit printed matches BENCHMARK.json;
- in the traced run, per-layer self times cover at least 90% of each
  workload's timed phase;
- the same seed prints the same sim_digest.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("replay_pack", "sweep_packed", "fleet_served")


def run_bench(*args):
    """Runs one benchmark invocation: (exit code, result, digest)."""
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py")] + list(args),
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest ")), None)
    return proc.returncode, result, digest, proc.stderr


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


class PerfbenchTest(unittest.TestCase):

    def check_result(self, result, kind):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(units, declared(kind))

    def test_truncated_input_counts_as_failed_op(self):
        code, result, _, err = run_bench("--workload", "sweep_packed", "--seed", "7",
                                         "--seconds", "2", "--trace", "0", "--truncate-input")
        self.assertEqual(code, 1, err)  # a failed check, not a signal
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        self.assertIn("ops_failed_ratio", err)

    def test_metrics_match_and_spans_cover_timed_phase(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, _, err = run_bench("--workload", workload, "--seed", "3",
                                                 "--seconds", "2", "--trace", "0")
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.check_result(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

                code, result, _, err = run_bench("--workload", workload, "--seed", "3",
                                                 "--seconds", "3", "--trace", "1")
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.check_result(result, "per_layer")
                self.assertGreaterEqual(result["metrics"]["span_coverage"]["value"], 0.9)

    def test_same_seed_same_digest(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digests = set()
                for _ in range(2):
                    code, _, digest, err = run_bench("--workload", workload, "--seed", "5",
                                                     "--seconds", "1", "--trace", "0")
                    self.assertEqual(code, 0, err)
                    digests.add(digest)
                self.assertEqual(len(digests), 1)
                self.assertTrue(all(digests))


if __name__ == "__main__":
    unittest.main()
