#!/usr/bin/env python3
"""Tests of the fleet benchmark itself, on its smoke sizes.

Run from the repository root (builds the driver on first use):

    python3 fleetbench/test_fleetbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("fleetbench", "run.py")
WORKLOADS = ("paper_batch", "refresh_stream", "fleet_restore")


def run(workload, trace="0", seconds="1", extra=(), cwd=ROOT):
    process = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", seconds, "--trace", trace, "--smoke"] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return process


def result_of(process):
    return json.loads(process.stdout.strip().split("\n")[-1])


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return {m["name"] for m in json.load(spec)[section]}


class SmokeTest(unittest.TestCase):
    def check_run(self, workload, trace):
        process = run(workload, trace=trace)
        self.assertEqual(process.returncode, 0, process.stderr)
        result = result_of(process)
        self.assertTrue(result["correct"], process.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        section = "per_layer" if trace == "1" else "end_to_end"
        self.assertEqual(set(result["metrics"]), declared(section))
        return result

    def test_every_workload_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.check_run(workload, "0")["metrics"]
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0, name)

    def test_every_workload_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, "1")

    def test_perturbed_fingerprint_is_caught(self):
        expected = os.path.join(ROOT, "fleetbench", "expected",
                                "paper_batch.txt")
        scratch = os.path.join(ROOT, ".bench_build", "test")
        os.makedirs(scratch, exist_ok=True)
        perturbed = os.path.join(scratch, "perturbed_paper_batch.txt")
        with open(expected) as source, open(perturbed, "w") as out:
            for line in source:
                fields = line.split()
                if fields and fields[0] == "smoke":
                    digit = "0" if fields[1][-1] != "0" else "1"
                    fields[1] = fields[1][:-1] + digit
                    line = " ".join(fields) + "\n"
                out.write(line)
        process = run("paper_batch", extra=["--expected", perturbed])
        self.assertEqual(process.returncode, 0, process.stderr)
        result = result_of(process)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("CHECK FAILED: table1 fingerprint", process.stdout)

    def test_refuses_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own directory: no result,
        # non-zero exit.
        scratch = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(os.path.join(ROOT, "fleetbench"),
                            os.path.join(scratch, "fleetbench"))
            process = run("paper_batch", cwd=scratch)
            self.assertNotEqual(process.returncode, 0)
            self.assertNotIn('"correct"', process.stdout)
        finally:
            shutil.rmtree(scratch)

    def test_quantiles(self):
        run("paper_batch")  # makes sure the driver is built
        binary = os.path.join(ROOT, ".bench_build", "fleetbench", "fleetbench")
        process = subprocess.run([binary, "--self-test"], capture_output=True,
                                 text=True, timeout=60)
        self.assertEqual(process.returncode, 0, process.stdout + process.stderr)


if __name__ == "__main__":
    unittest.main()
