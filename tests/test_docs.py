"""The docs gate, run as part of tier-1 (CI runs tools/check_docs.py too).

Pins the satellite contracts of the README/docs pass: a README exists
with a runnable ```python quickstart, no Markdown doc holds a dangling
relative link, and the extraction helpers behave (so a fence-format
change cannot silently turn the CI docs job into a no-op).
"""

import pathlib
import sys

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs  # noqa: E402


def test_readme_exists():
    assert (check_docs.REPO_ROOT / "README.md").is_file()


def test_extract_code_blocks_filters_by_language():
    md = "\n".join([
        "intro", "```sh", "echo no", "```",
        "```python", "x = 1", "y = x + 1", "```",
        "```", "plain fence", "```",
        "```python", "z = 2", "```",
    ])
    blocks = check_docs.extract_code_blocks(md)
    assert blocks == ["x = 1\ny = x + 1\n", "z = 2\n"]


def test_readme_has_a_python_quickstart():
    readme = (check_docs.REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert check_docs.extract_code_blocks(readme), "README lost its quickstart"


def test_readme_quickstart_runs_verbatim():
    assert check_docs.run_readme_quickstart(check_docs.REPO_ROOT / "README.md") == []


def test_no_dangling_relative_links():
    assert check_docs.check_relative_links() == []


def test_docs_named_in_code_exist():
    assert check_docs.check_md_references() == []


def test_docs_named_in_code_catches_a_missing_doc(tmp_path, monkeypatch):
    # A docstring citing a document that was never written fails the
    # gate; one citing an existing document (root or sibling) passes.
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "NOTES.md").write_text("# notes\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "LOCAL.md").write_text("# local\n", encoding="utf-8")
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '"""See NOTES.md, LOCAL.md and DESIGN.md §5."""\n', encoding="utf-8"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_md_references()
    assert errors == ["src/pkg/mod.py: names DESIGN.md, which does not exist"]


def test_docs_named_in_code_catches_a_dead_section(tmp_path, monkeypatch):
    # A quoted title must begin one of the doc's headings, even when it
    # wraps a line; a § reference cannot be checked, so it always fails.
    (tmp_path / "examples").mkdir()
    (tmp_path / "NOTES.md").write_text(
        "# Notes\n\n## Graph substrate (PR 2)\n\n```\n# Lost section\n```\n",
        encoding="utf-8",
    )
    (tmp_path / "examples" / "demo.py").write_text(
        '"""See NOTES.md, "Graph substrate", NOTES.md\'s "Graph\n'
        '    substrate (PR 2)", NOTES.md "Lost section" and NOTES.md §E2."""\n',
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_md_references()
    assert errors == [
        'examples/demo.py: cites NOTES.md "Lost section", which begins no heading',
        "examples/demo.py: cites NOTES.md §E2; quote a heading instead",
    ]


def test_lint_registry_matches_experiments_table():
    assert check_docs.check_lint_registry() == []


def test_lint_registry_catches_drift(tmp_path, monkeypatch):
    # A registered checker missing from the table, and a documented
    # checker no registry entry backs, are both gate failures.
    real = (check_docs.REPO_ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    drifted = real.replace("`no-unseeded-rng`", "`no-entropy-leaks`")
    (tmp_path / "EXPERIMENTS.md").write_text(drifted, encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_lint_registry()
    assert any("'no-unseeded-rng' is registered but missing" in e for e in errors)
    assert any("'no-entropy-leaks'" in e and "not a registered" in e for e in errors)


def test_lint_registry_requires_the_section(tmp_path, monkeypatch):
    (tmp_path / "EXPERIMENTS.md").write_text("# EXPERIMENTS\n", encoding="utf-8")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_lint_registry()
    assert errors == ['EXPERIMENTS.md: no "## Determinism rules" section']


def test_link_checker_sees_through_fences(tmp_path, monkeypatch):
    # Links inside fenced code blocks are not links; links outside are.
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "```sh\ncat [not a link](nowhere.json)\n```\n"
        "real: [gone](missing.md)\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ("*.md",))
    errors = check_docs.check_relative_links()
    assert errors == ["DOC.md: broken link (missing.md)"]


def test_cli_invocations_in_docs_parse():
    assert check_docs.check_cli_invocations() == []


def test_cli_invocations_catch_an_unknown_flag(tmp_path, monkeypatch):
    # Every quoted `python -m repro ...` must parse; continuations are
    # joined, and placeholders, elided arguments, bare mentions and
    # CHANGES.md are skipped.
    (tmp_path / "DOC.md").write_text(
        "Run `python -m repro table1 --n 9 --strategy squatter` or\n"
        "any `python -m repro …` invocation\n"
        "```sh\n"
        "python -m repro sweep --strategies squatter,idle \\\n"
        "    --scheduler 'synchronous,adversarial(window=4)'  # two schedulers\n"
        "python -m repro table1 --n 9 --bogus 1\n"
        "python -m repro <command> --help\n"
        "```\n"
        "The entry point is `python -m repro`.\n",
        encoding="utf-8",
    )
    (tmp_path / "CHANGES.md").write_text(
        "- `python -m repro bench --suite all` (since deleted)\n", encoding="utf-8"
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ("*.md",))
    errors = check_docs.check_cli_invocations()
    assert errors == [
        "DOC.md: `python -m repro table1 --n 9 --bogus 1` does not parse "
        "(repro: error: unrecognized arguments: --bogus 1)"
    ]


def test_cli_flags_in_prose_exist():
    assert check_docs.check_cli_flags() == []


def test_cli_flags_catch_a_dropped_flag(tmp_path, monkeypatch):
    # A backticked flag no repro command takes fails the gate; `--a/--b`
    # names two flags, and a value after the flag is ignored.
    (tmp_path / "README.md").write_text(
        "Plan flags: `--workers N`, `--resume/--no-resume`, `--chunk`.\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_cli_flags()
    assert errors == ["README.md: names `--chunk`, which no repro command takes"]
