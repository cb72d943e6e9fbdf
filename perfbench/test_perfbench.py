#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Covers the metric-name grammar, the percentile rule, the counting of a
forced fingerprint mismatch as a failure, and that the timing
decorators (traffic source, packet sink, trace sink) leave every
RunMetrics record bit-identical. The last two build and run oenet_perfbench
(see run.py for where it is built).
"""

import copy
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

GRAMMAR = re.compile(r"^[A-Za-z0-9_.-]+$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
NOTE = re.compile(r"^p([0-9.]+) of ([0-9]+) samples$")


def load(name):
    with open(os.path.join(run.HERE, name)) as f:
        return json.load(f)


def point(label, fp, drained=True, expect_drained=True, ok=True):
    return {"label": label, "ok": ok, "drained": drained,
            "expect_drained": expect_drained,
            "hard_failures": 0 if expect_drained else 1, "goodput": 1.0,
            "fingerprint": fp, "avg_latency": 1.0, "normalized_power": 1.0}


def report(units=3):
    """A clean three-unit report of two points."""
    return {"reference": point("a", "aaaa"),
            "units": [{"kind": "untraced",
                       "points": [point("a", "aaaa"), point("b", "bbbb")]}
                      for _ in range(units)]}


class MetricNames(unittest.TestCase):
    def test_declared_names_follow_the_grammar(self):
        spec = run.benchmark_spec()
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]]
        names += [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for n in names:
            self.assertRegex(n, GRAMMAR)
            self.assertTrue(run.NAME_RE.match(n), n)
        for key in ("end_to_end", "per_layer"):
            for m in spec[key]:
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("higher", "lower"))

    def test_rejects_bad_names(self):
        for bad in ("", "a b", "wall/s", "x" * 65, ".lead", "p99%"):
            self.assertFalse(run.NAME_RE.match(bad), bad)

    def test_rationale_covers_every_declared_metric(self):
        spec, why = run.benchmark_spec(), load("rationale.json")
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [m["name"] for m in why["per_layer"]])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w["name"] for w in why["workloads"]])


class Accounting(unittest.TestCase):
    def test_clean_report(self):
        attempted, problems = run.account(report())
        self.assertEqual(attempted, 7)
        self.assertEqual(problems, [])

    def test_forced_fingerprint_mismatch_counts_as_failed(self):
        r = report()
        r["units"][1]["points"][1]["fingerprint"] = "dead"
        attempted, problems = run.account(r)
        self.assertEqual(len(problems), 1)
        self.assertIn("fingerprint dead != bbbb", problems[0])
        self.assertAlmostEqual(len(problems) / attempted, 1 / 7)

    def test_reference_mismatch_fails_every_disagreeing_run(self):
        r = report()
        r["reference"]["fingerprint"] = "ffff"
        attempted, problems = run.account(r)
        self.assertEqual(len(problems), 3)

    def test_traced_and_untraced_runs_must_agree(self):
        r = report(units=2)
        traced = copy.deepcopy(r["units"][0])
        traced["kind"] = "traced"
        traced["points"][0]["fingerprint"] = "beef"
        r["units"].append(traced)
        _, problems = run.account(r)
        self.assertEqual(len(problems), 1)
        self.assertTrue(problems[0].startswith("traced a:"))

    def test_undrained_and_failed_points_count(self):
        r = report()
        r["units"][0]["points"][0]["drained"] = False
        r["units"][2]["points"][1]["ok"] = False
        _, problems = run.account(r)
        self.assertEqual(len(problems), 2)

    def test_hard_kill_point_must_lose_packets(self):
        r = report()
        for u in r["units"]:
            u["points"][1] = point("b", "bbbb", drained=False,
                                   expect_drained=False)
        self.assertEqual(run.account(r)[1], [])
        r["units"][0]["points"][1]["drained"] = True
        r["units"][1]["points"][1]["goodput"] = 0.0
        self.assertEqual(len(run.account(r)[1]), 2)


class Binary(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def test_selftest_percentiles_fingerprints_and_decorators(self):
        r = subprocess.run([self.binary, "--selftest"],
                           stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertNotIn("FAIL", r.stdout)
        for probe in ("chunked", "probed", "trace sink"):
            self.assertIn(f"{probe} run matches", r.stdout)

    def test_reported_percentiles_keep_ten_samples_beyond(self):
        r = subprocess.run([self.binary, "--workload", "faulted_resilience",
                            "--seed", "3", "--seconds", "0.5",
                            "--trace", "0"],
                           stdout=subprocess.PIPE, text=True, timeout=600)
        self.assertEqual(r.returncode, 0)
        report = json.loads(r.stdout.strip().splitlines()[-1])
        metrics = {**report["metrics"], **report["printed"]}
        for name in ("kcycle_ms_p50", "kcycle_ms_p99"):
            m = NOTE.match(metrics[name]["note"])
            self.assertIsNotNone(m, metrics[name])
            pct, n = float(m.group(1)), int(m.group(2))
            self.assertGreater(n, 0)
            if pct > 50:
                self.assertGreaterEqual(n * (1 - pct / 100) + 0.01, 10)
        self.assertLessEqual(float(NOTE.match(
            metrics["kcycle_ms_p99"]["note"]).group(1)), 99)


if __name__ == "__main__":
    unittest.main()
