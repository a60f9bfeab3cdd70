#!/usr/bin/env python3
"""lint_test — fixture coverage for tools/lint/smn_lint.py.

Each fixture under tests/lint_fixtures/ is a self-contained mini repo
root (layers.toml + src/). The tests assert that every planted
violation is caught, that a justified allow suppresses exactly its one
site, that stale/unjustified/over-budget allows fail, and that the
clang-tidy baseline comparison flags new warnings only in frozen mode.

Run directly (python3 tests/lint_test.py) or through CTest (lint_test).
"""

from __future__ import annotations

import subprocess
import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"
LINT = REPO_ROOT / "tools" / "lint" / "smn_lint.py"


def run_lint(root: Path, passes: str, *extra: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(LINT), "--root", str(root), "--passes", passes, *extra],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    return proc.returncode, proc.stdout + proc.stderr


class CleanFixture(unittest.TestCase):
    def test_clean_tree_passes_all_local_passes(self):
        rc, out = run_lint(FIXTURES / "clean", "layering,determinism,headers")
        self.assertEqual(rc, 0, out)
        self.assertIn("smn-lint: OK", out)


class PlantedViolations(unittest.TestCase):
    """One planted violation per rule; each must be caught at its site."""

    def run_violations(self, passes: str) -> str:
        rc, out = run_lint(FIXTURES / "violations", passes)
        self.assertEqual(rc, 1, out)
        return out

    def test_layering_edge(self):
        out = self.run_violations("layering")
        self.assertIn("src/low/bad_layer.hpp:4: [layering]", out)
        self.assertNotIn("uses_low", out)

    def test_determinism_rules(self):
        out = self.run_violations("determinism")
        self.assertIn("src/low/unordered.hpp:8: [unordered-container]", out)
        self.assertIn("src/low/rawrand.hpp:10: [raw-rand]", out)
        self.assertIn("src/low/rawrand.hpp:14: [raw-rand]", out)
        self.assertIn("src/low/clock.hpp:9: [wall-clock]", out)
        self.assertIn("src/low/ptrkey.hpp:8: [pointer-keyed]", out)
        self.assertIn("src/low/floatacc.hpp:10: [float-accumulate]", out)
        # #include lines themselves are not findings.
        self.assertNotIn("unordered.hpp:4:", out)

    def test_header_self_sufficiency(self):
        out = self.run_violations("headers")
        self.assertIn("src/low/missing_include.hpp: [header-self-sufficiency]", out)
        # The other headers (all self-sufficient) produce no findings.
        self.assertEqual(out.count("[header-self-sufficiency]"), 1, out)


class AllowSemantics(unittest.TestCase):
    def test_allow_suppresses_exactly_one_site(self):
        rc, out = run_lint(FIXTURES / "allows", "determinism")
        self.assertEqual(rc, 1, out)
        # The covered line (10) is suppressed; the uncovered line (14) is not.
        self.assertNotIn("allowed.hpp:10:", out)
        self.assertIn("src/low/allowed.hpp:14: [unordered-container]", out)

    def test_stale_allow_is_an_error(self):
        rc, out = run_lint(FIXTURES / "allows", "determinism")
        self.assertEqual(rc, 1, out)
        self.assertIn("src/low/unused.hpp:6: [unused-allow]", out)

    def test_allow_requires_justification(self):
        rc, out = run_lint(FIXTURES / "allows", "determinism")
        self.assertEqual(rc, 1, out)
        self.assertIn("src/low/nojust.hpp:9: [allow-missing-justification]", out)
        # The unjustified allow does not suppress its target either.
        self.assertIn("src/low/nojust.hpp:10: [unordered-container]", out)

    def test_suppression_budget_is_enforced(self):
        rc, out = run_lint(FIXTURES / "budget", "determinism")
        self.assertEqual(rc, 1, out)
        self.assertIn("[suppression-budget]", out)
        self.assertIn("2 allow sites exceed the budget of 1", out)
        # Both sites were validly suppressed; only the budget fails.
        self.assertNotIn("[unordered-container]", out)


class TidyBaseline(unittest.TestCase):
    def test_at_baseline_is_clean(self):
        rc, out = run_lint(
            FIXTURES / "tidy",
            "tidy",
            "--tidy-input",
            str(FIXTURES / "tidy" / "out_at_baseline.txt"),
        )
        self.assertEqual(rc, 0, out)

    def test_new_violation_fails_in_frozen_mode(self):
        rc, out = run_lint(
            FIXTURES / "tidy",
            "tidy",
            "--tidy-input",
            str(FIXTURES / "tidy" / "out_new.txt"),
        )
        self.assertEqual(rc, 1, out)
        self.assertIn("[tidy-new-violation]", out)
        self.assertIn("bugprone-use-after-move: 2 warning(s), baseline allows 1", out)
        self.assertIn("performance-for-range-copy: 1 warning(s), baseline allows 0", out)

    def test_bootstrap_mode_reports_without_failing(self):
        rc, out = run_lint(
            FIXTURES / "tidy",
            "tidy",
            "--config",
            str(FIXTURES / "tidy" / "config_bootstrap.toml"),
            "--tidy-input",
            str(FIXTURES / "tidy" / "out_new.txt"),
        )
        self.assertEqual(rc, 0, out)
        self.assertIn("bootstrap mode", out)
        self.assertIn("(bootstrap)", out)


class RealTree(unittest.TestCase):
    """The actual repository must be clean under the cheap passes.

    (The headers pass over the real tree runs as its own CTest entry,
    lint_tree_test, so a slow compiler doesn't stall the unit shard.)
    """

    def test_repo_layering_determinism_scripts_clean(self):
        rc, out = run_lint(REPO_ROOT, "layering,determinism,scripts")
        self.assertEqual(rc, 0, out)

    def test_repo_layers_toml_matches_architecture_doc(self):
        # architecture.md promises dependencies point strictly downward;
        # layers.toml is the machine-checked version of that table. Spot
        # check the load-bearing claims the doc makes.
        import tomllib

        with open(REPO_ROOT / "tools" / "lint" / "layers.toml", "rb") as fh:
            layers = tomllib.load(fh)["layers"]
        self.assertEqual(layers["io"], ["util"], "io depends on util only")
        self.assertEqual(layers["obs"], [], "obs is a leaf")
        for dep in ("core", "exp", "sim"):
            self.assertNotIn(dep, layers["graph"], f"graph must not depend on {dep}")
        self.assertIn("sim", layers["exp"], "exp sits above sim")


if __name__ == "__main__":
    unittest.main(verbosity=2)
