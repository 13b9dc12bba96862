#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny size.

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py if needed. Checks that every workload
passes its checks and prints every metric BENCHMARK.json names, with its
unit, in both modes; that a wrong reference makes the command fail; and
that the command fails without a result when the sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--seconds", "0.2", "--scale", "0.02"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, cwd=ROOT):
    done = subprocess.run(RUN + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done, result


class Workloads(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_print_with_units(self):
        # Under seed 302 the KV ring puts no member on m0, the machine a
        # plain seed-modulo choice would kill; the victim must be a machine
        # that hosts members, or the run waits for a rebuild that never
        # comes.
        for w in WORKLOADS:
            with self.subTest(workload=w):
                done, result = run("--workload", w, "--seed", "302",
                                   "--trace", "0", *TINY)
                self.assertEqual(done.returncode, 0, done.stderr)
                self.check_metrics(result, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                    self.assertIn(f"metric {m['name']} = ", done.stdout)

    def test_per_layer_metrics_print_with_units(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                done, result = run("--workload", w, "--seed", "4",
                                   "--trace", "1", *TINY)
                self.assertEqual(done.returncode, 0, done.stderr)
                self.check_metrics(result, SPEC["per_layer"])
                overhead = result["metrics"]["obs.traced_overhead"]["value"]
                self.assertGreater(overhead, 0)

    def test_same_seed_same_virtual_results(self):
        outs = []
        for _ in range(2):
            done, result = run("--workload", "kv-lossy-rebuild", "--seed",
                               "5", "--trace", "1", *TINY)
            self.assertEqual(done.returncode, 0, done.stderr)
            outs.append({k: v["value"] for k, v in result["metrics"].items()
                         if k.startswith(("e2e.", "bus.reliable.",
                                          "recover.", "vm.insns"))})
        self.assertEqual(outs[0], outs[1])


class Checks(unittest.TestCase):
    def test_wrong_counter_reference_fails(self):
        done, result = run("--workload", "counter-rpc", "--seed", "1",
                           "--trace", "0", "--check-offset", "1", *TINY)
        self.assertNotEqual(done.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("server total", done.stderr)

    def test_unknown_workload_fails_without_result(self):
        done, result = run("--workload", "nope", "--seed", "1",
                           "--trace", "0", *TINY)
        self.assertNotEqual(done.returncode, 0)
        self.assertIsNone(result)

    def test_fails_without_sources(self):
        # A tree holding only BENCHMARK.json and this directory cannot build
        # the program, so the command must fail without a result.
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        if not os.path.isabs(build):
            build = os.path.join(ROOT, build)
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tree:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tree)
            shutil.copytree(HERE, os.path.join(tree, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "counter-rpc", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tree, env=env, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
