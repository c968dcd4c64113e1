"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests

Builds the benchmark (as run.py does), runs the C++ self-tests
(harness_test.cc: open-loop stall timing, the percentile tail rule, metric
names, spans), and checks the report schema, BENCHMARK.json and the
compare tool's verdicts.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402
import run  # noqa: E402


class BuiltTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build(["perfbench", "perfbench_selftest"]):
            raise unittest.SkipTest("benchmark build failed")

    def test_cpp_selftests(self):
        proc = subprocess.run([run.binary("perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-4000:])

    def test_report_schema_round_trips(self):
        proc = subprocess.run([run.binary("perfbench"), "--sample-report"],
                              capture_output=True, text=True, check=True)
        line = proc.stdout.strip().split("\n")[-1]
        report = json.loads(line)
        run.check_report(report, {"latency_ms": "ms", "setup_s": "s"})
        again = json.loads(json.dumps(report))
        self.assertEqual(again, report)
        run.check_report(again, {"latency_ms": "ms", "setup_s": "s"})

    def test_unknown_workload_prints_no_report(self):
        proc = subprocess.run([run.binary("perfbench"), "--workload", "nope",
                               "--seed", "1", "--seconds", "1", "--trace", "0",
                               "--work-dir", os.path.join(run.BUILD, "t")],
                              capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class SchemaTests(unittest.TestCase):
    def setUp(self):
        self.good = {"correct": True, "attempted": 2, "failed": 0,
                     "metrics": {"a_us": {"value": 1.5, "unit": "us"}}}

    def test_accepts_contract_shape(self):
        run.check_report(self.good, {"a_us": "us"})

    def test_rejects_deviations(self):
        bad = [
            dict(self.good, extra=1),
            dict(self.good, attempted=0),
            dict(self.good, attempted=True),
            dict(self.good, correct="yes"),
            dict(self.good, metrics={}),
            dict(self.good, metrics={"a_us": {"value": 1, "unit": "ms"}}),
            dict(self.good, metrics={"a_us": {"value": "1", "unit": "us"}}),
        ]
        for report in bad:
            with self.assertRaises(ValueError, msg=report):
                run.check_report(report, {"a_us": "us"})


class SpecTests(unittest.TestCase):
    def test_metric_names_are_valid_and_unique(self):
        spec = run.load_spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_setup_metric_is_present(self):
        spec = run.load_spec()
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")


class CompareTests(unittest.TestCase):
    def test_verdicts(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        better = [v * 1.2 for v in parent]
        self.assertEqual(compare.verdict(parent, better, True, 0.1)[0],
                         "improved")
        self.assertEqual(compare.verdict(parent, parent, True, 0.1)[0],
                         "no worse")
        worse = [v * 0.8 for v in parent]
        self.assertEqual(compare.verdict(parent, worse, True, 0.1)[0], "worse")
        noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
        self.assertEqual(compare.verdict(noisy, noisy, True, 0.1)[0],
                         "unresolved")
        # Lower is better: a 20% latency rise is a regression.
        self.assertEqual(compare.verdict(parent, better, False, 0.1)[0],
                         "worse")

    def test_more_failures_cancel_a_gain(self):
        spec = {"workloads": [{"name": "w", "why": ""}],
                "end_to_end": [{"name": "rate", "unit": "1/s",
                                "better": "higher", "bound": 0.1}],
                "per_layer": []}

        def runs(values, failed):
            return {("w", 0): [{"attempted": 100, "failed": failed,
                                "metrics": {"rate": {"value": v}}}
                               for v in values]}

        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        better = [v * 1.2 for v in parent]
        out = compare.compare(runs(parent, 0), runs(better, 0), spec)
        self.assertIn("improved", out)
        out = compare.compare(runs(parent, 0), runs(better, 1), spec)
        self.assertNotIn("improved", out)
        self.assertIn("no worse", out)
        self.assertIn("failed_ratio", out)


if __name__ == "__main__":
    unittest.main()
