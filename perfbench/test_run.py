#!/usr/bin/env python3
"""Tests of the round benchmark, on the reduced-size mode of the same command.

Run from the root of a checkout:

    python3 perfbench/test_run.py

Every workload runs once untraced and once traced on small inputs; the
tests assert that every metric of BENCHMARK.json is printed by name with
its unit, that all output checks pass, and that a failed check makes
the run fail.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def bench(workload, trace, seed=3):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
           "--scale", "reduced"]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    return r.returncode, r.stdout.splitlines()


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w, t): bench(w, t) for w in run.WORKLOADS for t in (0, 1)}

    def test_spec_matches_the_metric_tables(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in self.spec["per_layer"]],
                         [p[:3] for p in run.PER_LAYER])
        end_to_end = {m["name"] for m in self.spec["end_to_end"]} | {"failed_share"}
        for name, _, _, moves, on in run.PER_LAYER:
            if moves is None:
                self.assertTrue(name.startswith(("shard.", "dist.")), name)
            else:
                self.assertIn(moves, end_to_end, name)
            self.assertTrue(set(on) <= set(run.WORKLOADS), name)

    def check_run(self, workload, trace, metrics):
        code, lines = self.runs[(workload, trace)]
        self.assertEqual(code, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 100)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], float, m["name"])
            # ...and the human-readable table names it with its unit.
            self.assertTrue(
                any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                    for line in lines[:-1]),
                f"{m['name']} [{m['unit']}] not printed")
        self.assertTrue(any(line.startswith("host: nproc=") for line in lines))
        self.assertTrue(any(line.split()[:1] == ["failed_share"] for line in lines))

    def test_end_to_end_metrics_are_printed_for_every_workload(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 0, self.spec["end_to_end"])
                code, lines = self.runs[(w, 0)]
                result = json.loads(lines[-1])
                for m in self.spec["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0, m["name"])
                # The wall-clock figures are printed beside the gated ones.
                for name in ("rounds_per_s", "round_p50_ms", "round_p90_ms"):
                    self.assertTrue(any(line.split()[:1] == [name] for line in lines), name)

    def test_per_layer_metrics_are_printed_by_the_traced_run(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.check_run(w, 1, self.spec["per_layer"])

    def test_each_layer_is_reached_by_its_workload(self):
        for name, _, _, _, on in run.PER_LAYER:
            for w in on:
                _, lines = self.runs[(w, 1)]
                row = [line for line in lines if line.split()[:1] == [name]]
                self.assertEqual(len(row), 1, f"{name} on {w}")
                self.assertNotIn("not reached", row[0], f"{name} on {w}")

    def test_shard_and_seq_reach_the_same_loads(self):
        for trace in (0, 1):
            _, lines = self.runs[("expander-seq", trace)]
            self.assertTrue(any(line.startswith("checks:") for line in lines))
            self.assertFalse(any(line.startswith("CHECK FAILED") for line in lines))

    def test_a_failed_check_fails_every_round(self):
        class Opts:
            workload, trace, seed, scale = "expander-seq", 0, 1, "reduced"
        doc = {"gaps_ns": [1000000] * 120, "wall_s": 0.12, "cpu_gaps_ns": [900000] * 120,
               "cpu_s": 0.108, "attempted": 120, "layer": {}}
        checks = [{"name": "tokens conserved", "ok": False, "detail": "1 of 2"}]
        result, lines = run.summarize(Opts, doc, 10.0, [(0.1, 0.09)], checks, {})
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 120)
        self.assertIn("CHECK FAILED: tokens conserved: 1 of 2", lines)
        ok = [{"name": "tokens conserved", "ok": True, "detail": ""}]
        result, _ = run.summarize(Opts, doc, 10.0, [(0.1, 0.09)], ok, {})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_a_failed_check_exits_non_zero(self):
        argv = ["run.py", "--workload", "expander-seq", "--seed", str(run.DEFAULT_SEED),
                "--seconds", "0.3", "--scale", "reduced"]
        saved = (sys.argv, dict(run.RECORDED_EXPANDER_DIGESTS), os.getcwd())
        out = io.StringIO()
        try:
            os.chdir(ROOT)
            sys.argv = argv
            with contextlib.redirect_stdout(io.StringIO()):
                code = run.main()  # the recorded digest is right
            self.assertEqual(code, 0)
            run.RECORDED_EXPANDER_DIGESTS["reduced"] = "0" * 16
            with contextlib.redirect_stdout(out):
                code = run.main()
        finally:
            sys.argv, recorded, cwd = saved
            run.RECORDED_EXPANDER_DIGESTS.update(recorded)
            os.chdir(cwd)
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertTrue(any(line.startswith("CHECK FAILED: final-load digest equals")
                            for line in lines))

if __name__ == "__main__":
    unittest.main()
