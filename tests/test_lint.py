"""Tests for the determinism linter (``repro lint`` / :mod:`repro.lint`).

Three layers:

* fixture tests — one bad + one good fixture per checker under
  ``tests/data/lint/``, plus a checked-in golden of the JSON output;
* the acceptance gate — the real ``src/repro`` tree lints clean, and
  breaking the Scenario ↔ cell_key contract in any of the ways ISSUE.md
  names (deleting a drop-at-default guard, adding an axis without
  canonicalisation, making a guarded write unconditional) turns the
  axis checker red;
* CLI plumbing — exit codes, ``--format json``, ``--select``
  validation, and the checker registry surfaced in ``--help``.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.cli import main
from repro.lint import CHECKERS, default_lint_root, lint_paths
from repro.lint.base import run_lint

TESTS_DIR = pathlib.Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "data" / "lint"
BAD = FIXTURES / "bad"
GOOD = FIXTURES / "good"
SRC_REPRO = TESTS_DIR.parent / "src" / "repro"

CHECKER_NAMES = [c.name for c in CHECKERS]


def findings_for(path, select=None):
    return run_lint([path], CHECKERS, select=select)


def checker_hits(findings, checker):
    return [f for f in findings if f.checker == checker]


class TestFixtures:
    """Every checker has a firing bad fixture and a silent good one."""

    @pytest.fixture(scope="class")
    def bad_findings(self):
        return findings_for(BAD)

    @pytest.fixture(scope="class")
    def good_findings(self):
        return findings_for(GOOD)

    def test_good_tree_is_clean(self, good_findings):
        assert good_findings == []

    def test_every_checker_fires_on_bad_tree(self, bad_findings):
        fired = {f.checker for f in bad_findings}
        assert fired == set(CHECKER_NAMES)

    def test_unseeded_rng(self, bad_findings):
        hits = checker_hits(bad_findings, "no-unseeded-rng")
        assert [(f.path, f.line) for f in hits] == [
            ("rng.py", 9),   # random.seed
            ("rng.py", 10),  # random.random
            ("rng.py", 11),  # from-imported shuffle
            ("rng.py", 12),  # unseeded random.Random()
            ("rng.py", 13),  # SystemRandom
            ("rng.py", 14),  # np.random.rand
            ("rng.py", 15),  # unseeded default_rng()
        ]

    def test_wallclock(self, bad_findings):
        hits = checker_hits(bad_findings, "no-wallclock-in-records")
        assert [f.line for f in hits] == [7, 8, 9, 10, 11]
        assert all(f.path == "wallclock.py" for f in hits)

    def test_unordered_iteration(self, bad_findings):
        hits = checker_hits(bad_findings, "no-unordered-iteration")
        assert [f.line for f in hits] == [7, 9, 11, 12, 13, 14]
        assert all(f.path == "unordered.py" for f in hits)

    def test_canonical_json(self, bad_findings):
        hits = checker_hits(bad_findings, "canonical-json-only")
        assert len(hits) == 1
        assert hits[0].path == "repro/analysis/store.py"
        assert "sort_keys" in hits[0].message

    def test_exception_hygiene(self, bad_findings):
        hits = checker_hits(bad_findings, "exception-hygiene")
        assert [f.line for f in hits] == [7, 14, 21]
        assert all(f.path == "broad_except.py" for f in hits)

    def test_axis_contract_violations(self, bad_findings):
        hits = checker_hits(bad_findings, "scenario-axis-canonicalisation")
        messages = "\n".join(f.message for f in hits)
        assert "'schema' slot" in messages           # base payload key deleted
        assert "'humidity' has no default" in messages
        assert "'weather' never reaches cell_key" in messages
        assert "accepts 'rounds' but never writes it" in messages
        assert "'scheduler' joins the key payload without" in messages
        assert "'ghost' has no Scenario field" in messages
        assert len(hits) == 6

    def test_findings_carry_hints_and_positions(self, bad_findings):
        for f in bad_findings:
            assert f.hint, f
            assert f.line >= 1 and f.col >= 0

    def test_golden_json_output(self, bad_findings):
        golden = json.loads((FIXTURES / "golden.json").read_text())
        assert [f.to_dict() for f in bad_findings] == golden


class TestPragmas:
    def test_line_pragma_suppresses(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import random\n"
            "x = random.random()  # repro: allow-rng — fixture justification\n"
        )
        assert findings_for(tmp_path) == []

    def test_preceding_comment_pragma_suppresses(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import time\n"
            "# repro: allow-wallclock — deadline, never recorded\n"
            "t = time.monotonic()\n"
        )
        assert findings_for(tmp_path) == []

    def test_file_pragma_suppresses_whole_module(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "# repro: allow-rng file\n"
            "import random\n"
            "a = random.random()\n"
            "b = random.random()\n"
        )
        assert findings_for(tmp_path) == []

    def test_wrong_pragma_token_does_not_suppress(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import random\n"
            "x = random.random()  # repro: allow-wallclock\n"
        )
        assert len(findings_for(tmp_path)) == 1

    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        (tmp_path / "m.py").write_text("def broken(:\n")
        findings = findings_for(tmp_path)
        assert len(findings) == 1
        assert findings[0].checker == "syntax"


class TestRealTree:
    """The acceptance gate: src/repro lints clean, mutations go red."""

    def test_src_repro_is_clean(self):
        assert lint_paths() == []

    def test_default_root_is_the_package(self):
        assert default_lint_root() == SRC_REPRO

    @pytest.fixture()
    def real_tree(self, tmp_path):
        """Copy the real contract modules into a mini lintable tree."""
        (tmp_path / "repro" / "analysis").mkdir(parents=True)
        shutil.copy(SRC_REPRO / "scenarios.py", tmp_path / "repro" / "scenarios.py")
        shutil.copy(SRC_REPRO / "analysis" / "store.py",
                    tmp_path / "repro" / "analysis" / "store.py")
        return tmp_path

    def axis_findings(self, tree):
        return findings_for(tree, select=["scenario-axis-canonicalisation"])

    def test_real_contract_modules_pass(self, real_tree):
        assert self.axis_findings(real_tree) == []

    def test_deleting_a_guard_fails(self, real_tree):
        store = real_tree / "repro" / "analysis" / "store.py"
        src = store.read_text()
        guard = ('    if scheduler != "synchronous":\n'
                 '        config["scheduler"] = scheduler\n')
        assert guard in src
        store.write_text(src.replace(guard, ""))
        hits = self.axis_findings(real_tree)
        assert any("'scheduler'" in f.message and "never writes" in f.message
                   for f in hits)

    def test_unguarded_write_fails(self, real_tree):
        store = real_tree / "repro" / "analysis" / "store.py"
        src = store.read_text()
        guard = ('    if scheduler != "synchronous":\n'
                 '        config["scheduler"] = scheduler\n')
        assert guard in src
        store.write_text(src.replace(
            guard, '    config["scheduler"] = scheduler\n'))
        hits = self.axis_findings(real_tree)
        assert any("without a drop-at-default guard" in f.message
                   for f in hits)

    def test_new_axis_without_canonicalisation_fails(self, real_tree):
        scen = real_tree / "repro" / "scenarios.py"
        src = scen.read_text()
        anchor = '    scheduler: str = "synchronous"\n'
        assert anchor in src
        scen.write_text(src.replace(anchor, anchor + "    weak_byz: int = 0\n"))
        hits = self.axis_findings(real_tree)
        assert any("'weak_byz' never reaches cell_key" in f.message
                   for f in hits)

    def test_deleting_a_base_key_fails(self, real_tree):
        store = real_tree / "repro" / "analysis" / "store.py"
        src = store.read_text()
        slot = '        "seed": seed,\n'
        assert slot in src
        store.write_text(src.replace(slot, ""))
        hits = self.axis_findings(real_tree)
        assert any("lost the 'seed' slot" in f.message for f in hits)


class TestCli:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(GOOD)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(BAD)]) == 1
        out = capsys.readouterr().out
        assert "[no-unseeded-rng]" in out
        assert "finding(s)" in out

    def test_json_format_round_trips(self, capsys):
        assert main(["lint", str(BAD), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["checker"] for f in payload} == set(CHECKER_NAMES)

    def test_select_subsets_checkers(self, capsys):
        assert main(["lint", str(BAD), "--select", "no-unseeded-rng"]) == 1
        out = capsys.readouterr().out
        assert "[no-unseeded-rng]" in out
        assert "[exception-hygiene]" not in out

    def test_unknown_checker_exits_two(self, capsys):
        assert main(["lint", str(BAD), "--select", "no-such-checker"]) == 2
        assert "unknown checker" in capsys.readouterr().err

    def test_help_lists_every_checker(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--help"],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(TESTS_DIR.parent / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        for name in CHECKER_NAMES:
            assert name in proc.stdout

    def test_default_path_is_real_tree(self, capsys):
        # `repro lint` with no path argument lints src/repro — clean.
        assert main(["lint"]) == 0
