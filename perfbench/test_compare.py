#!/usr/bin/env python3
"""Tests of compare.py's verdicts and quartiles: python3 perfbench/test_compare.py"""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402


def runs(values):
    """(seed, value) pairs, seeds 1..n."""
    return list(enumerate(values, start=1))


class VerdictTest(unittest.TestCase):
    def test_a_clear_win_on_every_pair_is_an_improvement(self):
        parent = runs([10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0])
        change = runs([8.0, 8.1, 7.9, 8.2, 8.0, 7.8, 8.1, 8.0, 7.9, 8.0])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1), "improved")

    def test_higher_is_better_flips_the_direction(self):
        parent = runs([100.0, 101.0, 99.0, 100.5, 100.0])
        change = runs([120.0, 121.0, 119.0, 120.5, 120.0])
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1), "improved")
        self.assertEqual(compare.verdict(change, parent, "higher", 0.1), "worse")

    def test_a_loss_beyond_the_bound_is_worse(self):
        parent = runs([10.0] * 5)
        change = runs([11.5, 11.6, 11.4, 11.5, 11.5])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1), "worse")

    def test_a_loss_within_the_bound_is_the_same(self):
        parent = runs([10.0, 10.1, 9.9, 10.0, 10.05])
        change = runs([10.5, 10.6, 10.4, 10.5, 10.55])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1), "same")

    def test_a_gain_inside_the_parents_spread_is_not_an_improvement(self):
        parent = runs([9.0, 11.0, 9.5, 10.5, 10.0, 9.0, 11.0, 10.0])
        change = runs([9.8] * 8)
        self.assertNotEqual(compare.verdict(parent, change, "lower", 0.5), "improved")

    def test_a_win_on_fewer_than_nine_tenths_of_pairs_is_not_an_improvement(self):
        parent = runs([10.0] * 10)
        change = runs([5.0] * 8 + [10.5, 10.5])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1), "same")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = runs([8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 10.0])
        change = runs([10.2, 10.1, 10.3, 9.0, 11.5, 10.0, 10.4, 10.2])
        self.assertEqual(compare.verdict(parent, change, "lower", 0.05), "unresolved")

    def test_wide_spread_with_every_change_run_better_is_resolved(self):
        parent = runs([8.0, 12.0, 9.0, 11.0])
        change = runs([7.0, 7.5, 7.2, 7.9])
        self.assertNotEqual(compare.verdict(parent, change, "lower", 0.05), "unresolved")

    def test_any_failure_against_a_zero_error_parent_is_worse(self):
        parent = runs([0.0] * 5)
        self.assertEqual(compare.verdict(parent, runs([0.0] * 5), "lower", 0.0), "same")
        change = runs([0.02] * 5)
        self.assertEqual(compare.verdict(parent, change, "lower", 0.0), "worse")

    def test_runs_pair_by_seed_when_both_sides_ran_the_same_seeds(self):
        parent = [(3, 1.0), (1, 2.0)]
        change = [(1, 20.0), (3, 10.0)]
        self.assertEqual(compare.pairs(parent, change), [(2.0, 20.0), (1.0, 10.0)])


class QuartileTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]), (1.5, 3.0, 4.5))
        self.assertEqual(compare.quartiles([7.0]), (7.0, 7.0, 7.0))


class ReportTest(unittest.TestCase):
    def record(self, seed, trace, metrics):
        return {
            "schema": "perfbench-result/1",
            "workload": "w",
            "seed": seed,
            "trace": trace,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def test_prints_verdicts_and_flags_counts_that_move_within_a_seed(self):
        parent = [self.record(1, False, {"wall_s": (10.0, "s")}),
                  self.record(1, True, {"mapping.evaluated.mesh": (5, "count")})]
        change = [self.record(1, False, {"wall_s": (12.0, "s")}),
                  self.record(1, True, {"mapping.evaluated.mesh": (6, "count")})]
        out = io.StringIO()
        compare.compare(parent, change, {"wall_s": ("lower", 0.1)}, {}, out)
        text = out.getvalue()
        self.assertIn("worse (bound 0.1)", text)
        self.assertIn("COUNT MOVED", text)


if __name__ == "__main__":
    unittest.main()
