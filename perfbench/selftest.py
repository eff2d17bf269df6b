#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), runs the C++ self-tests of the
measurement primitives (tests/selftest.cc: percentile selection, span
self time, the getrusage/RSS readers), round-trips the result line of a
short untraced and traced run through the schema check, and checks the
comparison script's verdicts on synthetic runs.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402
import run  # noqa: E402

ROOT = os.getcwd()


def setUpModule():
    global BUILD
    BUILD = run.build(ROOT)


class MeasureTest(unittest.TestCase):
    def test_cpp_selftest(self):
        out = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)


class ResultSchemaTest(unittest.TestCase):
    def result_of(self, trace):
        out = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload", "paper", "--seed",
             "3", "--seconds", "0.3", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout[-2000:])
        lines = out.stdout.strip().split("\n")
        report = json.loads(lines[-2])["report"]
        return lines[-1], report

    def round_trip(self, trace):
        line, report = self.result_of(trace)
        result = json.loads(line)
        run.check_result(result, run.declared_metrics(ROOT, trace == 1))
        again = json.loads(json.dumps(result))
        self.assertEqual(again, result)
        run.check_result(again, run.declared_metrics(ROOT, trace == 1))
        # Every digit survives: the line re-parses to the same doubles.
        for name, m in result["metrics"].items():
            self.assertEqual(repr(m["value"]), repr(again["metrics"][name]["value"]))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        for key in ("nproc", "cpu_model", "compiler", "build_type", "git_sha",
                    "threads"):
            self.assertIn(key, report["host"])
        return result, report

    def test_untraced_round_trip(self):
        result, report = self.round_trip(0)
        for m in result["metrics"].values():
            self.assertGreater(m["value"], 0)
        self.assertTrue(all(g["failed"] == 0 for g in report["gates"]))

    def test_traced_round_trip(self):
        result, report = self.round_trip(1)
        self.assertAlmostEqual(report["self_time_sum_share"], 1.0,
                               delta=report["self_time_tolerance"])
        self.assertGreater(len(report["spans"]), 10)

    def test_rejects_malformed(self):
        good = {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"a": {"value": 1.5, "unit": "s"}}}
        run.check_result(good, ["a"])
        for bad in ({**good, "extra": 1},
                    {**good, "attempted": 0},
                    {**good, "failed": 1.0},
                    {**good, "metrics": {"a": {"value": None, "unit": "s"}}},
                    {**good, "metrics": {"b": {"value": 1.0, "unit": "s"}}}):
            with self.assertRaises(ValueError):
                run.check_result(bad, ["a"])


class CompareTest(unittest.TestCase):
    def write_runs(self, directory, workload, values):
        os.makedirs(directory, exist_ok=True)
        for i, v in enumerate(values):
            report = {"report": {"workload": workload, "trace": False,
                                 "metrics": {"queries_per_s": {"value": v,
                                                               "unit": "queries/s"}}}}
            with open(os.path.join(directory, "%d.out" % i), "w") as f:
                f.write("text\n%s\n{}\n" % json.dumps(report))

    def verdict(self, base, head):
        tmp = tempfile.mkdtemp(dir=BUILD)
        try:
            self.write_runs(os.path.join(tmp, "base"), "paper", base)
            self.write_runs(os.path.join(tmp, "head"), "paper", head)
            rows = compare.compare(compare.load_runs(os.path.join(tmp, "base")),
                                   compare.load_runs(os.path.join(tmp, "head")),
                                   compare.load_spec())
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(len(rows), 1)
        return rows[0][7]

    def test_verdicts(self):
        steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        self.assertEqual(self.verdict(steady, steady), "same")
        self.assertEqual(self.verdict(steady, [v * 0.5 for v in steady]), "worse")
        self.assertEqual(self.verdict(steady, [v * 1.5 for v in steady]), "better")
        noisy = [50, 150, 60, 140, 100, 70, 130, 90, 110, 100]
        self.assertEqual(self.verdict(noisy, steady), "unresolved")
        # Wide spread, but every head run loses to every base run.
        self.assertEqual(self.verdict([1000, 1400, 1200, 1600],
                                      [100, 140, 120, 160]), "worse")


if __name__ == "__main__":
    unittest.main()
