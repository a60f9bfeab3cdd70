#!/usr/bin/env python3
"""paperbench_ab_test — the decision rule of scripts/paperbench_ab.py.

Feeds `compare` synthetic run.py results and checks which ones fail the
gate: both metric directions at and just past the bound, `correct: false`,
a higher failed share and a missing metric. Also checks the option parsing
and the run.py command each run builds. Runs no benchmark.

Run directly (python3 tests/paperbench_ab_test.py) or through CTest
(paperbench_ab_test).
"""

import contextlib
import importlib.util
import io
import sys
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paperbench_ab.py"
_spec = importlib.util.spec_from_file_location("paperbench_ab", SCRIPT)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

HIGHER = {"name": "agent_steps_per_s", "better": "higher", "bound": 0.25}
LOWER = {"name": "rep_ms_p50", "better": "lower", "bound": 0.25}


def result(correct=True, attempted=100, failed=0, **metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()}}


def runs(n=3, **kwargs):
    return [result(**kwargs) for _ in range(n)]


class Direction(unittest.TestCase):
    def verdict(self, metric, base, change):
        rows, failures = ab.compare([metric], runs(**{metric["name"]: base}),
                                    runs(**{metric["name"]: change}))
        return rows[0][-1], failures

    def test_higher_is_better_passes_exactly_at_the_bound(self):
        self.assertEqual(self.verdict(HIGHER, 100.0, 75.0), ("ok", []))

    def test_higher_is_better_fails_just_past_the_bound(self):
        verdict, failures = self.verdict(HIGHER, 100.0, 74.9)
        self.assertEqual(verdict, "FAIL")
        self.assertIn("agent_steps_per_s", failures[0])

    def test_higher_is_better_gain_passes(self):
        self.assertEqual(self.verdict(HIGHER, 100.0, 200.0), ("ok", []))

    def test_lower_is_better_passes_exactly_at_the_bound(self):
        self.assertEqual(self.verdict(LOWER, 100.0, 125.0), ("ok", []))

    def test_lower_is_better_fails_just_past_the_bound(self):
        verdict, failures = self.verdict(LOWER, 100.0, 125.1)
        self.assertEqual(verdict, "FAIL")
        self.assertIn("rep_ms_p50", failures[0])

    def test_lower_is_better_gain_passes(self):
        self.assertEqual(self.verdict(LOWER, 100.0, 50.0), ("ok", []))


class Medians(unittest.TestCase):
    def test_median_not_mean_and_pairs_won(self):
        base = [result(agent_steps_per_s=v) for v in (100.0, 100.0, 100.0)]
        change = [result(agent_steps_per_s=v) for v in (10.0, 101.0, 102.0)]
        rows, failures = ab.compare([HIGHER], base, change)
        self.assertEqual(failures, [])
        self.assertEqual(rows[0], ("agent_steps_per_s", 100.0, 101.0, 1.01, "2/3", "ok"))


class OtherChecks(unittest.TestCase):
    def test_incorrect_change_fails(self):
        change = runs(2, agent_steps_per_s=100.0) + [result(correct=False, agent_steps_per_s=100.0)]
        _, failures = ab.compare([HIGHER], runs(agent_steps_per_s=100.0), change)
        self.assertEqual(failures, ["correct: false"])

    def test_higher_failed_share_fails(self):
        _, failures = ab.compare([HIGHER], runs(failed=1, agent_steps_per_s=100.0),
                                 runs(failed=2, agent_steps_per_s=100.0))
        self.assertEqual(len(failures), 1)
        self.assertIn("failed share", failures[0])

    def test_equal_or_lower_failed_share_passes(self):
        for change_failed in (0, 1):
            _, failures = ab.compare([HIGHER], runs(failed=1, agent_steps_per_s=100.0),
                                     runs(failed=change_failed, agent_steps_per_s=100.0))
            self.assertEqual(failures, [])

    def test_metric_missing_from_change_fails(self):
        change = runs(2, agent_steps_per_s=100.0) + [result()]
        rows, failures = ab.compare([HIGHER], runs(agent_steps_per_s=100.0), change)
        self.assertEqual(rows, [])
        self.assertEqual(failures, ["agent_steps_per_s: missing"])

    def test_metric_new_in_change_is_reported_not_compared(self):
        rows, failures = ab.compare([HIGHER], runs(), runs(agent_steps_per_s=1.0))
        self.assertEqual(failures, [])
        self.assertEqual(rows[0][-1], "new")


WORKLOADS = ["bcast_r0", "bcast_r2", "frog_r2", "gossip_r0"]


class Options(unittest.TestCase):
    def parse(self, *argv):
        return ab.parse_args(list(argv), WORKLOADS)

    def test_defaults_are_the_gate(self):
        args = self.parse("main")
        self.assertEqual((args.base, args.workload, args.seed, args.pairs),
                         ("main", WORKLOADS, None, 5))

    def test_options(self):
        args = self.parse("HEAD~1", "--workload", "frog_r2", "--workload", "bcast_r0",
                          "--seed", "7", "--pairs", "10")
        self.assertEqual((args.base, args.workload, args.seed, args.pairs),
                         ("HEAD~1", ["frog_r2", "bcast_r0"], 7, 10))

    def test_a_repeated_workload_runs_once(self):
        self.assertEqual(self.parse("main", "--workload", "frog_r2", "--workload",
                                    "frog_r2").workload, ["frog_r2"])

    def exit_code(self, *argv):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), self.assertRaises(SystemExit) as raised:
            self.parse(*argv)
        return raised.exception.code, stderr.getvalue()

    def test_unknown_workload_exits_2_and_lists_the_valid_ones(self):
        code, message = self.exit_code("main", "--workload", "bcast_r0", "--workload", "nope")
        self.assertEqual(code, 2)
        self.assertIn("unknown workload nope", message)
        self.assertIn("valid: " + ", ".join(WORKLOADS), message)

    def test_bad_numbers_exit_2(self):
        for argv in (["--pairs", "0"], ["--pairs", "x"], ["--pairs", "-1"], ["--seed", "1.5"]):
            self.assertEqual(self.exit_code("main", *argv)[0], 2, argv)

    def test_no_arguments_print_the_usage_and_exit_1(self):
        with self.assertRaises(SystemExit) as raised:
            ab.main([])
        self.assertEqual(raised.exception.code, ab.__doc__)


class Command(unittest.TestCase):
    TREE = Path("/tree")

    def test_default_command(self):
        self.assertEqual(ab.run_command(self.TREE, "gossip_r0"),
                         [sys.executable, "/tree/paperbench/run.py", "--workload", "gossip_r0",
                          "--seconds", "10"])

    def test_seed_reaches_run_py(self):
        self.assertEqual(ab.run_command(self.TREE, "frog_r2", 7)[2:],
                         ["--workload", "frog_r2", "--seconds", "10", "--seed", "7"])


if __name__ == "__main__":
    unittest.main()
