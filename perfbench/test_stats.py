"""Tests for the benchmark's statistics.  Run: python3 perfbench/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402


class Medians(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_order_free(self):
        xs = [5.0, 0.5, 3.25, 9.0, 1.0]
        self.assertEqual(stats.median(xs), stats.median(sorted(xs)))


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        xs = [7.0, 1.0, 4.0, 9.0, 2.0, 6.0, 3.0, 8.0, 5.0, 10.0]
        self.assertEqual(stats.quartiles(xs), tuple(statistics.quantiles(xs, n=4)))

    def test_known_values(self):
        # exclusive method on 1..10: positions 2.75, 5.5, 8.25
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_iqr_frac(self):
        self.assertAlmostEqual(stats.iqr_frac(list(range(1, 11))), 5.5 / 5.5)
        self.assertEqual(stats.iqr_frac([2.0] * 10), 0.0)


class Ratios(unittest.TestCase):
    def test_zero_denominator_is_zero(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)
        self.assertEqual(stats.ratio(0, 0), 0.0)

    def test_per_op_pools_runs(self):
        runs = [
            {"ok": 10, "counters": {"events": 100}},
            {"ok": 30, "counters": {"events": 500}},
        ]
        # pooled: 600 / 40, not the mean of 10 and 16.67
        self.assertEqual(stats.per_op(runs, "counters.events"), 15.0)
        self.assertEqual(stats.per_op(runs, "counters.events", ops="counters.events"), 1.0)

    def test_per_op_no_ops(self):
        self.assertEqual(stats.per_op([{"ok": 0, "x": 3}], "x"), 0.0)

    def test_paper_error(self):
        rows = [(110.0, 100.0), (90.0, 100.0), (50.0, 50.0)]
        self.assertAlmostEqual(stats.mean_abs_rel_err_pct(rows), 20.0 / 3)


class HostRate(unittest.TestCase):
    def test_stated_at_the_reference_speed(self):
        reps = [{"rep": 0, "ok": 1, "host_s": 1.0},  # the process's first: left out
                {"rep": 1, "ok": 100, "host_s": 1.0},
                {"rep": 2, "ok": 300, "host_s": 1.0},
                {"rep": 3, "ok": 200, "host_s": 1.0}]
        self.assertEqual(run.raw_rate(reps), 200.0)
        # a host at half the reference speed: the loop took twice as long
        ref = run.CALIB_REF_NS
        self.assertEqual(run.host_rate(reps, [2 * ref, 3 * ref, 1 * ref]), 400.0)

    def test_setup_at_the_reference_start_speed(self):
        # set-up medians 3 ms while bare starts took twice the reference
        start = [2 * run.START_REF_S] * 3
        self.assertAlmostEqual(run.setup_at_reference([0.004, 0.003, 0.002], start),
                               0.0015)


if __name__ == "__main__":
    unittest.main()
