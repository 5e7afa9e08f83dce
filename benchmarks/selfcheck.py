"""Self-check of the benchmark, kept out of the library's test suite.

Run from the repository root::

    python3 benchmarks/selfcheck.py

It checks that every name in BENCHMARK.json is well formed and matches the
workloads defined here, that a shrunken copy of each workload runs in
seconds and emits every end-to-end metric, that the traced run emits every
per-layer metric, and that a directory without the library's sources makes
the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_LIMIT_S = 60.0


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=2 * SMOKE_LIMIT_S)


class SpecTest(unittest.TestCase):
    def test_names_and_units_are_well_formed_and_unique(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for metric in SPEC[group]:
                names.append(metric["name"])
                self.assertTrue(UNIT.fullmatch(metric["unit"]), metric)
                self.assertIn(metric["better"], ("higher", "lower"))
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(max(m["bound"] for m in SPEC["end_to_end"]),
                         setup[0]["bound"])

    def test_workloads_match_definitions(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        import workloads
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(workloads.WORKLOADS))


class RunTest(unittest.TestCase):
    def check_result(self, proc, group):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(emitted, expected)
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_each_workload_shrunken_runs_in_seconds(self):
        for workload in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    start = time.perf_counter()
                    proc = run_bench(workload["name"], trace)
                    self.assertLess(time.perf_counter() - start, SMOKE_LIMIT_S)
                    self.check_result(proc, group)

    def test_fails_without_library_sources(self):
        proc = run_bench(SPEC["workloads"][0]["name"], 0, cwd=HERE)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
