#!/usr/bin/env python3
"""Tests of the perfbench benchmark itself.

    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py (which builds the benchmark on first
use) with a short measuring budget.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TMP = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                   "perfbench-test")


def bench(*args, cwd=ROOT):
    """Run run.py; @return (exit code, last stdout line as JSON or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1"] + list(args),
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        shutil.rmtree(TMP, ignore_errors=True)
        os.makedirs(TMP)

    def test_metric_names_and_units(self):
        seen = set()
        for kind in ("end_to_end", "per_layer"):
            for m in self.spec[kind]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
        self.assertIn("setup_s", [m["name"] for m in self.spec["end_to_end"]])

    def test_reported_metrics_match_the_spec(self):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, result = bench("--workload", "simulate_suite",
                                 "--seed", "3", "--trace", trace)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            want = {m["name"]: m["unit"] for m in self.spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            if kind == "end_to_end":
                for v in result["metrics"].values():
                    self.assertGreater(v["value"], 0)

    def test_dropped_responses_count_as_failed(self):
        code, result = bench("--workload", "serve_stream", "--seed", "3",
                             "--response-capacity", "2")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_corrupted_digest_exits_nonzero(self):
        with open(os.path.join(HERE, "digests.txt")) as f:
            text = f.read()
        for workload, trace in (("sweep_window_forwarded", "0"),
                                ("simulate_suite", "0"),
                                ("simulate_suite", "1")):
            with self.subTest(workload=workload, trace=trace):
                bad = os.path.join(TMP, workload + ".digests.txt")
                with open(bad, "w") as f:
                    f.write(re.sub(r"(?m)^(%s \S+ \S+ )(\w)" % workload,
                                   lambda m: m.group(1) +
                                   ("1" if m.group(2) != "1" else "2"),
                                   text))
                code, result = bench("--workload", workload,
                                     "--digest-file", bad, "--trace", trace)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["metrics"], {})

    def test_fails_without_the_sources(self):
        bare = os.path.join(TMP, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result = bench("--workload", "simulate_suite", cwd=bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
