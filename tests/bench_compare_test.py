#!/usr/bin/env python3
"""Self-test for tools/bench_compare.py — the script that gates every
BENCH report in CI deserves its own gate.

Runs the real script as a subprocess against temp-file report pairs and
checks the exit code (and, where the message matters, stderr/stdout
content). Plain unittest, no external deps, wired into ctest next to the
C++ suites.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools",
    "bench_compare.py")


def run_compare(baseline, current, *extra_args):
    """Writes both reports to temp files and runs bench_compare on them."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        cur_path = os.path.join(tmp, "current.json")
        with open(base_path, "w", encoding="utf-8") as f:
            json.dump(baseline, f)
        with open(cur_path, "w", encoding="utf-8") as f:
            json.dump(current, f)
        return subprocess.run(
            [sys.executable, SCRIPT, base_path, cur_path, *extra_args],
            capture_output=True, text=True, check=False)


class BenchCompareTest(unittest.TestCase):
    def test_identical_reports_pass(self):
        report = {"bench": "x", "answered_ratio": 1.0, "order_preserved": True}
        result = run_compare(report, report)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_boolean_flip_fails(self):
        result = run_compare({"order_preserved": True},
                             {"order_preserved": False})
        self.assertEqual(result.returncode, 1)
        self.assertIn("flipped", result.stdout)

    def test_ratio_regression_fails(self):
        result = run_compare({"answered_ratio": 1.0},
                             {"answered_ratio": 0.5})
        self.assertEqual(result.returncode, 1)

    def test_ratio_within_threshold_passes(self):
        result = run_compare({"warm_hit_ratio": 1.0},
                             {"warm_hit_ratio": 0.9})
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_timing_skipped_without_gate_timing(self):
        result = run_compare({"wall_seconds": 0.1}, {"wall_seconds": 10.0})
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_missing_baseline_key_fails(self):
        result = run_compare({"answered_ratio": 1.0}, {})
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing from current", result.stdout)

    def test_extra_current_key_ignored_without_require(self):
        # The asymmetry --require exists to close: keys absent from the
        # baseline are invisible to the walk.
        result = run_compare({}, {"warm_hit_after_failover": False})
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_require_present_in_both_passes(self):
        report = {"warm_hit_after_failover": True}
        result = run_compare(report, report,
                             "--require", "warm_hit_after_failover")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_require_missing_from_current_fails(self):
        result = run_compare({"warm_hit_after_failover": True}, {},
                             "--require", "warm_hit_after_failover")
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing from current", result.stdout)

    def test_require_missing_from_baseline_fails(self):
        result = run_compare({}, {"warm_hit_after_failover": True},
                             "--require", "warm_hit_after_failover")
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing from baseline", result.stdout)

    def test_require_dotted_path(self):
        report = {"router": {"failovers": 1}}
        ok = run_compare(report, report, "--require", "router.failovers")
        self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
        missing = run_compare(report, {"router": {}},
                              "--require", "router.failovers")
        self.assertEqual(missing.returncode, 1)

    def test_require_list_index(self):
        report = {"cases": [{"n": 20, "allocations_per_solve": 5},
                            {"n": 50, "allocations_per_solve": 5}]}
        ok = run_compare(report, report,
                         "--require", "cases[1].allocations_per_solve")
        self.assertEqual(ok.returncode, 0, ok.stdout + ok.stderr)
        dropped = {"cases": [{"n": 20, "allocations_per_solve": 5},
                             {"n": 50}]}
        missing = run_compare(dropped, dropped,
                              "--require", "cases[1].allocations_per_solve")
        self.assertEqual(missing.returncode, 1)
        self.assertIn("missing from baseline", missing.stdout)
        out_of_range = run_compare(report, report,
                                   "--require", "cases[2].n")
        self.assertEqual(out_of_range.returncode, 1)
        not_a_list = run_compare(report, report, "--require", "cases.n[0]")
        self.assertEqual(not_a_list.returncode, 1)
        malformed = run_compare(report, report, "--require", "cases[x].n")
        self.assertEqual(malformed.returncode, 2)

    def test_unreadable_report_exits_2(self):
        result = subprocess.run(
            [sys.executable, SCRIPT, "/nonexistent/a.json",
             "/nonexistent/b.json"],
            capture_output=True, text=True, check=False)
        self.assertEqual(result.returncode, 2)


if __name__ == "__main__":
    unittest.main()
