#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at --tiny size, untraced and
traced, through the same run.py entry point the full benchmark uses.

    python3 perfbench/test_smoke.py

Checks that each run exits 0 and ends with the result object, that it
reports every metric BENCHMARK.json names (end-to-end untraced, per-layer
traced) with the declared unit, that the printed text names each metric
with its unit, and that error_rate is 0. Also checks that run.py refuses
to run, without printing a result, when the simulator sources are absent.
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
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        proc = run_bench(ROOT, workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        text = lines[:-1]
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(text))
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in declared})
        printed = {}
        for line in text:
            fields = line.split()
            if len(fields) == 3:
                printed[fields[0]] = fields[2]
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertEqual(printed.get(m["name"]), m["unit"], m["name"])
        self.assertTrue(any(re.match(r"\s*error_rate\s+0 ratio", line)
                            for line in text))

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check_run(w["name"], trace)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
