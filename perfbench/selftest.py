#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the repository root. Checks the result-line schema parser of
run.py and its metric-name grammar, that BENCHMARK.json names exactly the
metrics the runner reports, and runs the runner's own --self-test
(quantile, per-step minimum and self-time arithmetic, the child-process
helper, a tampered golden fingerprint, a traced smoke-scale fleet run).
Builds the runner first, as run.py does.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

UNITS = {"setup_s": "s", "run_s": "s"}
GOOD = {"correct": True, "attempted": 3, "failed": 0,
        "metrics": {"setup_s": {"value": 0.81, "unit": "s"},
                    "run_s": {"value": 1.2034, "unit": "s"}}}


def line(**changes):
    obj = json.loads(json.dumps(GOOD))
    obj.update(changes)
    return json.dumps(obj)


class SchemaTest(unittest.TestCase):
    def test_good_line_parses(self):
        self.assertEqual(run.parse_result(line(), UNITS), GOOD)

    def test_rejects(self):
        bad = {
            "not json": "{correct: true}",
            "extra key": line(extra=1),
            "missing key": json.dumps({k: v for k, v in GOOD.items() if k != "failed"}),
            "string count": line(attempted="3"),
            "no attempts": line(attempted=0, failed=0),
            "more failed than attempted": line(failed=4),
            "boolean correct": line(correct="yes"),
            "missing metric": line(metrics={"setup_s": GOOD["metrics"]["setup_s"]}),
            "wrong unit": line(metrics={"setup_s": {"value": 1, "unit": "ms"},
                                        "run_s": GOOD["metrics"]["run_s"]}),
            "string value": line(metrics={"setup_s": {"value": "1", "unit": "s"},
                                          "run_s": GOOD["metrics"]["run_s"]}),
            "extra metric field": line(metrics={"setup_s": {"value": 1, "unit": "s", "n": 3},
                                                "run_s": GOOD["metrics"]["run_s"]}),
        }
        for what, text in bad.items():
            with self.subTest(what):
                with self.assertRaises(run.SchemaError):
                    run.parse_result(text, UNITS)

    def test_name_grammar(self):
        for name in ("sim.self_s", "burst_p90_us", "9a-b.c_d", "a" * 64):
            self.assertTrue(run.NAME_RE.match(name), name)
        for name in ("", ".x", "_x", "a b", "a/b", "a" * 65):
            self.assertFalse(run.NAME_RE.match(name), name)
        bad = line(metrics={"bad name": {"value": 1, "unit": "s"}})
        with self.assertRaises(run.SchemaError):
            run.parse_result(bad, {"bad name": "s"})


class RunnerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise unittest.SkipTest("runner build failed")

    def test_benchmark_json_matches_runner(self):
        listed = subprocess.run([self.binary, "--list-metrics"], check=True,
                                stdout=subprocess.PIPE, text=True).stdout.split("\n")
        reported = {"end_to_end": {}, "per_layer": {}}
        for row in filter(None, listed):
            kind, name, unit = row.split()
            reported[kind][name] = unit
        for kind in ("end_to_end", "per_layer"):
            with self.subTest(kind):
                self.assertEqual(run.expected_metrics(kind == "per_layer"), reported[kind])

    def test_runner_self_test(self):
        res = subprocess.run([self.binary, "--self-test"], stdout=subprocess.PIPE, text=True)
        self.assertEqual(res.returncode, 0, res.stdout)


if __name__ == "__main__":
    unittest.main()
