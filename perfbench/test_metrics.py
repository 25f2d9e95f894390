#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic (metrics.py).

    python3 perfbench/test_metrics.py
"""

import statistics
import unittest

import metrics


def phase(**overrides):
    base = dict(planned_ops=0, attempts=0, ok_ingest=0, ok_solve=0, overloaded=0,
                backend_down=0, errors=0, unanswered=0, unmatched=0,
                order_violations=0, retries=0, policies_cache=0,
                policies_warm=0, policies_cold=0,
                request_bytes=0, response_bytes=0, latency_ms=[],
                service_ms=[], seconds=1.0, rounds=[],
                error_samples=[])
    base.update(overrides)
    return base


def stat_line(utime, stime, comm="audit_server"):
    # Fields 1..17 of /proc/<pid>/stat; utime and stime are fields 14, 15.
    return (f"4242 ({comm}) S 1 4242 4242 0 -1 4194560 100 0 0 0 "
            f"{utime} {stime} 0 0 20 0 5 0 123 456789 789\n")


class TailPercentileTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        q, value, n = metrics.tail_percentile(list(range(1, 1001)))
        self.assertEqual((q, value, n), (0.99, 990, 1000))

    def test_falls_back_to_p90_below_a_thousand(self):
        q, value, n = metrics.tail_percentile(list(range(1, 1000)))
        self.assertEqual(metrics.samples_beyond(999, 0.99), 9)
        self.assertEqual((q, value, n), (0.90, 900, 999))

    def test_p90_at_exactly_ten_beyond(self):
        q, value, _ = metrics.tail_percentile(list(range(100, 0, -1)))
        self.assertEqual((q, value), (0.90, 90))

    def test_tiny_sample_reports_the_median(self):
        q, value, _ = metrics.tail_percentile([5.0, 1.0, 3.0])
        self.assertEqual((q, value), (0.5, 3.0))

    def test_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        self.assertEqual(metrics.nearest_rank(values, 0.5), 2.0)
        self.assertEqual(metrics.nearest_rank(values, 0.51), 3.0)
        self.assertEqual(metrics.nearest_rank(values, 1.0), 4.0)
        self.assertEqual(metrics.nearest_rank([], 0.5), 0.0)


class FailedAttemptsTest(unittest.TestCase):
    def test_rejected_and_retried_attempts_are_failures(self):
        # 10 ops served; 3 attempts were shed and retried, 1 errored.
        p = phase(attempts=14, ok_ingest=4, ok_solve=6, overloaded=3,
                  retries=3, errors=1)
        self.assertEqual(metrics.failed_attempts(p), 4)
        self.assertAlmostEqual(metrics.failed_ratio(p), 4 / 14)

    def test_clean_run_has_no_failures(self):
        p = phase(attempts=21, ok_ingest=1, ok_solve=20)
        self.assertEqual(metrics.failed_ratio(p), 0.0)


class FailedRatioTest(unittest.TestCase):
    def test_every_failure_class_counts(self):
        # unanswered, order violations and backend_down are attempts that
        # were not ok; an unmatched response adds a failure of its own.
        p = phase(attempts=10, ok_solve=6, unanswered=1, order_violations=1,
                  backend_down=2, unmatched=1)
        self.assertEqual(metrics.failed_attempts(p), 5)
        self.assertEqual(metrics.failed_ratio(p), 0.5)

    def test_capped_at_attempts(self):
        p = phase(attempts=2, unmatched=5)
        self.assertEqual(metrics.failed_ratio(p), 1.0)

    def test_nothing_attempted_is_a_failure(self):
        self.assertEqual(metrics.failed_ratio(phase()), 1.0)


class RoundsTest(unittest.TestCase):
    """End-to-end figures are per-round values, reported as their median."""

    def raw(self):
        def mark(seconds, ok, solved, samples, utime, stime):
            return dict(seconds=seconds, ok_ops=ok, solved_policies=solved,
                        solve_samples=samples,
                        server_stat=stat_line(utime, stime))
        # Three rounds of 1000 ok ops: 1.0 s, 2.0 s and 0.5 s long, using
        # 100, 300 and 200 server ticks (1, 3 and 2 ms per op at 100 Hz).
        measured = phase(
            attempts=3000, ok_ingest=1500, ok_solve=1500, seconds=3.5,
            latency_ms=[1.0, 9.0, 2.0, 3.0, 5.0, 4.0],
            rounds=[mark(1.0, 1000, 10, 2, 180, 20),
                    mark(3.0, 2000, 30, 4, 400, 100),
                    mark(3.5, 3000, 40, 6, 550, 150)])
        return dict(measured=measured, measured_loss_sum=30.0,
                    measured_policies=3000,
                    server_stat_before=stat_line(100, 0),
                    server_stat_after=stat_line(550, 150),
                    clock_ticks_per_second=100)

    def test_rounds_cut_at_the_marks(self):
        cut = metrics.rounds(self.raw())
        self.assertEqual([r["ok"] for r in cut], [1000, 1000, 1000])
        self.assertEqual([r["ticks"] for r in cut], [100, 300, 200])
        self.assertEqual([r["solved"] for r in cut], [10, 20, 10])
        self.assertEqual([r["latency_ms"] for r in cut],
                         [[1.0, 9.0], [2.0, 3.0], [5.0, 4.0]])

    def test_median_over_rounds(self):
        e2e = metrics.end_to_end(self.raw(), [0.3, 0.1, 0.2], 12.0)
        self.assertEqual(e2e["goodput_rps"], 1000.0)
        self.assertEqual(e2e["solved_policies_per_s"], 10.0)
        # user + system ticks: 1, 3 and 2 ms per op.
        self.assertEqual(e2e["server_cpu_ms_per_op"], 2.0)
        self.assertEqual(e2e["latency_p50_ms"], 2.0)
        self.assertEqual(e2e["ok_ratio"], 1.0)
        self.assertEqual(e2e["loss_mean"], 0.01)
        self.assertEqual(e2e["setup_s"], 0.2)
        self.assertEqual(e2e["server_rss_mb"], 12.0)

    def test_goodput_excludes_rejected_and_retried_attempts(self):
        raw = self.raw()
        # The same ok ops, plus 400 attempts shed and retried: goodput is
        # unchanged, and ok_ratio counts every shed attempt.
        raw["measured"].update(attempts=3400, overloaded=400, retries=400)
        e2e = metrics.end_to_end(raw, [0.1], 12.0)
        self.assertEqual(e2e["goodput_rps"], 1000.0)
        self.assertAlmostEqual(e2e["ok_ratio"], 3000 / 3400)


class ProcTest(unittest.TestCase):
    def test_user_plus_system_ticks(self):
        self.assertEqual(metrics.proc_cpu_ticks(stat_line(350, 70)), 420)

    def test_command_name_with_spaces_and_parens(self):
        self.assertEqual(metrics.proc_cpu_ticks(
            stat_line(7, 5, comm="odd) name (x")), 12)

    def test_peak_rss(self):
        status = "Name:\taudit_server\nVmHWM:\t   10240 kB\nVmRSS:\t 512 kB\n"
        self.assertEqual(metrics.peak_rss_mib(status), 10.0)


class ProblemsTest(unittest.TestCase):
    def raw(self, **measured):
        m = phase(planned_ops=10, attempts=10, ok_ingest=5, ok_solve=5,
                  seconds=2.0)
        m.update(measured)
        return dict(setup=phase(), measured=m, measured_loss_sum=3.5,
                    measured_policies=7,
                    client_cpu_seconds=0.2,
                    replay=dict(mismatches=0, mismatch_samples=[],
                                measured_policies=7, measured_loss_sum=3.5))

    def test_clean_run(self):
        self.assertEqual(metrics.problems(self.raw()), [])

    def test_shedding_fails(self):
        # Every op was served in the end, but 2 attempts were shed first.
        raw = self.raw(attempts=12, overloaded=2, retries=2)
        self.assertEqual(len(metrics.problems(raw)), 1)
        self.assertIn("2 shed", metrics.problems(raw)[0])

    def test_ops_never_started_fail(self):
        # A phase cut short by its time cap: no attempt failed, but 4 of
        # the planned ops never ran.
        raw = self.raw(planned_ops=14)
        self.assertEqual(metrics.problems(raw),
                         ["measured phase served 10 of 14 planned ops"])

    def test_replay_disagreement_fails(self):
        raw = self.raw()
        raw["replay"]["measured_loss_sum"] = 3.5000000001
        self.assertTrue(metrics.problems(raw))

    def test_traced_resolve_mismatch_fails(self):
        raw = self.raw()
        raw["trace"] = dict(mismatches=0)
        self.assertEqual(metrics.problems(raw), [])
        raw["trace"] = dict(mismatches=3)
        self.assertEqual(metrics.problems(raw),
                         ["3 traced re-solves differ from the served policy"])

    def test_busy_client_invalidates_the_run(self):
        raw = self.raw()
        raw["client_cpu_seconds"] = 1.9
        self.assertTrue(any("bottleneck" in p
                            for p in metrics.problems(raw)))


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.5, 10.1]
        median, q1, q3, rel = metrics.spread(values)
        expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
        self.assertEqual((q1, q3), (expected_q1, expected_q3))
        self.assertAlmostEqual(rel, (expected_q3 - expected_q1) / median)


if __name__ == "__main__":
    unittest.main()
