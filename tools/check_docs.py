#!/usr/bin/env python3
"""Docs gate: execute the README quickstart and validate Markdown links.

Seven checks, all deterministic and network-free:

1. **Quickstart execution** — every ```python code block in README.md is
   executed, in order, in one shared namespace.  The quickstart is the
   first code a newcomer runs; it must work verbatim, so CI runs it
   verbatim.
2. **Relative-link validation** — every relative link target in the
   repo's Markdown docs must exist on disk.  Docs rot by renames; this
   catches the rename that forgot its references.
3. **Lint-registry sync** — the "Determinism rules" table in
   EXPERIMENTS.md must name exactly the checkers (and pragmas) that
   ``repro lint`` actually registers.  A checker added without a
   documented rule, or a documented rule whose checker was renamed
   away, fails the gate.
4. **Eval-registry sync** — the "Eval suites" table in EXPERIMENTS.md
   must name exactly the suites ``repro.evals.SUITES`` registers, so
   ``repro eval`` and the docs cannot drift apart.
5. **Doc references from code** — every ``*.md`` name a ``.py`` file under
   ``src/``, ``benchmarks/``, ``tools/`` or ``examples/`` names must
   exist, and a title quoted right after it (``<doc>.md, "Title"``,
   ``<doc>.md "Title"`` or ``<doc>.md's "Title"``) must begin one of
   that doc's headings, so a docstring cannot send its reader to a
   document or a section that is not there.  A ``§`` reference after a
   doc name always fails: the docs have no numbered sections to check
   it against.
6. **CLI invocations parse** — every ``repro`` invocation quoted after
   ``python -m`` in the Markdown docs (CHANGES.md, which is history,
   excepted), in ``repro.cli``'s module docstring and in its ``--help``
   epilogs must be accepted by ``repro.cli.build_parser()`` (``--help``
   exiting 0 counts), so the docs cannot quote a flag or a command that
   does not exist.  Backslash continuations are joined; an invocation with
   a ``<placeholder>``, with its arguments elided (``…``) or with no
   arguments is skipped.
7. **CLI flags named in prose exist** — every backticked ``--flag`` in
   README.md and in ``repro.cli``'s module docstring (``--a/--b`` names
   two) must be an option of ``repro``'s parser or of one of its
   subcommands, so a flag the CLI dropped cannot live on in the prose.

Run:  python tools/check_docs.py   (exit 0 = docs healthy)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path
from typing import List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Root-level docs whose links are validated (directories like
#: tests/related fixture READMEs are third-party and exempt).
DOC_GLOBS = ("*.md", ".github/**/*.md", "benchmarks/*.md", "examples/*.md")

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
#: Inline Markdown links; deliberately simple — our docs use plain
#: ``[text](target)`` forms.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Trees whose Python files may cite Markdown docs by name.
CODE_DIRS = ("src", "benchmarks", "tools", "examples")
_MD_NAME_RE = re.compile(r"\b[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b")
#: A doc name followed by a quoted title or a ``§`` reference.
_SECTION_RE = re.compile(
    rf"({_MD_NAME_RE.pattern})(?:,|'s)?\s+(?:\"([^\"]+)\"|(§\s*[\w.-]*\w))"
)
_HEADING_RE = re.compile(r"^#{1,6}\s+(.+?)\s*$", flags=re.MULTILINE)


def extract_code_blocks(markdown: str, language: str = "python") -> List[str]:
    """The contents of every fenced code block tagged ``language``."""
    blocks: List[str] = []
    current: List[str] = []
    in_block = False
    for line in markdown.splitlines():
        fence = _FENCE_RE.match(line)
        if fence and not in_block:
            in_block = fence.group(1) == language
            current = []
            continue
        if line.strip() == "```" and in_block is not False:
            if in_block:
                blocks.append("\n".join(current) + "\n")
            in_block = False
            continue
        if in_block:
            current.append(line)
    return blocks


def run_readme_quickstart(readme: Path) -> List[str]:
    """Execute README python blocks in one namespace; returns errors."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    blocks = extract_code_blocks(readme.read_text(encoding="utf-8"))
    if not blocks:
        return [f"{readme.name}: no ```python quickstart block found"]
    namespace: dict = {"__name__": "__readme__"}
    errors = []
    for i, block in enumerate(blocks, 1):
        try:
            exec(compile(block, f"<{readme.name} python block {i}>", "exec"), namespace)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            errors.append(f"{readme.name} python block {i} failed: {exc!r}")
    return errors


def _is_relative(target: str) -> bool:
    return not (
        target.startswith(("http://", "https://", "mailto:", "#"))
        or "://" in target
    )


def iter_relative_links(path: Path) -> List[Tuple[str, str]]:
    """All ``(raw target, resolved-relative target)`` links in one file."""
    text = path.read_text(encoding="utf-8")
    # Strip fenced code blocks: shell heredocs etc. are not links.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    out = []
    for match in _LINK_RE.finditer(text):
        target = match.group(1)
        if _is_relative(target):
            out.append((target, target.split("#", 1)[0]))
    return out


def _doc_paths() -> List[Path]:
    """The Markdown docs matched by :data:`DOC_GLOBS`, each once."""
    found = (p for pattern in DOC_GLOBS for p in sorted(REPO_ROOT.glob(pattern)))
    return [p for p in dict.fromkeys(found) if p.is_file()]


def check_relative_links() -> List[str]:
    """Dangling relative links across the repo's Markdown docs."""
    errors = []
    for path in _doc_paths():
        for raw, stripped in iter_relative_links(path):
            if not stripped:  # pure-anchor link into the same file
                continue
            resolved = (path.parent / stripped).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: broken link ({raw})"
                )
    return errors


def _headings(doc: Path) -> List[str]:
    """A Markdown file's heading titles (fenced code blocks stripped)."""
    text = re.sub(r"```.*?```", "", doc.read_text(encoding="utf-8"), flags=re.DOTALL)
    return _HEADING_RE.findall(text)


def check_md_references() -> List[str]:
    """``*.md`` names cited in code whose document does not exist, and
    sections cited in an existing document that it does not have.

    A name resolves against the repo root or the citing file's directory.
    A quoted title may wrap lines (comment markers are dropped) and
    matches any heading it begins.
    """
    errors = []
    for top in CODE_DIRS:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            where = path.relative_to(REPO_ROOT)
            docs = {}
            for name in sorted(set(_MD_NAME_RE.findall(text))):
                found = [d for d in (REPO_ROOT / name, path.parent / name) if d.exists()]
                if found:
                    docs[name] = found[0]
                else:
                    errors.append(f"{where}: names {name}, which does not exist")
            for name, title, section in _SECTION_RE.findall(text):
                if name not in docs:
                    continue
                title = " ".join(re.sub(r"\n\s*#:?", " ", title).split())
                if section:
                    errors.append(f"{where}: cites {name} {section}; quote a heading instead")
                elif not any(h.startswith(title) for h in _headings(docs[name])):
                    errors.append(f'{where}: cites {name} "{title}", which begins no heading')
    return errors


#: A quoted ``python -m repro ...`` (or ``... -m repro ...``) invocation:
#: its arguments run to the end of the line or of the inline code span,
#: or to a shell operator.
_INVOCATION_RE = re.compile(r"-m repro\b([^`\n|;&>]*)")


def _epilogs(parser: argparse.ArgumentParser) -> List[str]:
    """The ``--help`` epilogs of every subcommand of ``parser``, nested
    ones included."""
    out = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in dict.fromkeys(action.choices.values()):  # aliases share a parser
                out.extend([sub.epilog or "", *_epilogs(sub)])
    return out


def _cli():
    """``repro.cli``, imported from this tree."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro import cli  # noqa: PLC0415 - after sys.path setup

    return cli


def check_cli_invocations() -> List[str]:
    """Quoted ``python -m repro`` invocations the CLI parser rejects."""
    cli = _cli()
    parser = cli.build_parser()
    texts = [("src/repro/cli.py", text) for text in [cli.__doc__ or "", *_epilogs(parser)]]
    texts += [(str(path.relative_to(REPO_ROOT)), path.read_text(encoding="utf-8"))
              for path in _doc_paths() if path.name != "CHANGES.md"]
    errors = []
    for where, text in texts:
        for match in _INVOCATION_RE.finditer(re.sub(r"\\\n\s*", " ", text)):
            quoted = f"`python -m repro {match.group(1).strip()}`"
            stderr = io.StringIO()
            try:
                argv = shlex.split(match.group(1), comments=True)
                if not argv or any("<" in arg or arg == "…" for arg in argv):
                    continue
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(stderr):
                    parser.parse_args(argv)
            except ValueError as exc:  # shlex: an unclosed quote
                errors.append(f"{where}: {quoted} does not split ({exc})")
            except SystemExit as exc:
                if exc.code:
                    reason = stderr.getvalue().strip().splitlines()[-1]
                    errors.append(f"{where}: {quoted} does not parse ({reason})")
    return errors


#: A backticked option named in prose: ``--name`` or ``--a/--b``, with or
#: without a value after it.
_FLAG_RE = re.compile(r"`(--[\w-]+(?:/--[\w-]+)*)")


def _options(parser: argparse.ArgumentParser) -> Set[str]:
    """Every option string of ``parser`` and of its subcommands."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _options(sub)
    return found


def check_cli_flags() -> List[str]:
    """Backticked ``--flags`` in README.md and ``repro.cli``'s docstring
    that no ``repro`` command takes."""
    cli = _cli()
    known = _options(cli.build_parser())
    texts = [("README.md", (REPO_ROOT / "README.md").read_text(encoding="utf-8")),
             ("src/repro/cli.py", cli.__doc__ or "")]
    errors = []
    for where, text in texts:
        for span in _FLAG_RE.findall(text):
            errors.extend(f"{where}: names `{flag}`, which no repro command takes"
                          for flag in span.split("/") if flag not in known)
    return list(dict.fromkeys(errors))


def check_lint_registry() -> List[str]:
    """EXPERIMENTS.md's Determinism-rules table ↔ the lint registry."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.lint import CHECKERS  # noqa: PLC0415 - after sys.path setup

    doc = REPO_ROOT / "EXPERIMENTS.md"
    if not doc.is_file():
        return ["EXPERIMENTS.md is missing"]
    text = doc.read_text(encoding="utf-8")
    match = re.search(
        r"^## Determinism rules$(.*?)(?=^## |\Z)", text,
        flags=re.MULTILINE | re.DOTALL,
    )
    if match is None:
        return ['EXPERIMENTS.md: no "## Determinism rules" section']
    section = match.group(1)

    # Checker names / pragmas live in the table's last two columns as
    # backticked tokens; collect every backticked token in table rows.
    documented = set()
    for line in section.splitlines():
        if line.lstrip().startswith("|"):
            documented.update(re.findall(r"`([A-Za-z0-9#:\s\-]+)`", line))

    errors = []
    registry_names = {checker.name for checker in CHECKERS}
    for checker in CHECKERS:
        if checker.name not in documented:
            errors.append(
                f"EXPERIMENTS.md: checker {checker.name!r} is registered "
                f"but missing from the Determinism rules table"
            )
        pragma = f"# repro: {checker.pragma}"
        if pragma not in documented:
            errors.append(
                f"EXPERIMENTS.md: pragma {pragma!r} ({checker.name}) is "
                f"missing from the Determinism rules table"
            )
    for token in sorted(documented):
        looks_like_checker = re.fullmatch(r"[a-z][a-z0-9-]+", token)
        if looks_like_checker and "-" in token and token not in registry_names:
            errors.append(
                f"EXPERIMENTS.md: Determinism rules table names {token!r}, "
                f"which is not a registered checker"
            )
    return errors


def check_eval_registry() -> List[str]:
    """EXPERIMENTS.md's Eval-suites table ↔ the ``repro.evals`` registry."""
    src = REPO_ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from repro.evals import SUITES  # noqa: PLC0415 - after sys.path setup

    doc = REPO_ROOT / "EXPERIMENTS.md"
    if not doc.is_file():
        return ["EXPERIMENTS.md is missing"]
    text = doc.read_text(encoding="utf-8")
    match = re.search(
        r"^## Eval suites$(.*?)(?=^## |\Z)", text,
        flags=re.MULTILINE | re.DOTALL,
    )
    if match is None:
        return ['EXPERIMENTS.md: no "## Eval suites" section']
    section = match.group(1)

    # Suite names live in the table's *first* column as backticked
    # tokens (later columns may backtick parameters like `f_max`).
    documented = set()
    for line in section.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        first_cell = line.split("|")[1]
        documented.update(re.findall(r"`([A-Za-z0-9_\-]+)`", first_cell))

    errors = []
    for name in SUITES:
        if name not in documented:
            errors.append(
                f"EXPERIMENTS.md: eval suite {name!r} is registered but "
                f"missing from the Eval suites table"
            )
    for token in sorted(documented):
        looks_like_suite = re.fullmatch(r"[a-z][a-z0-9]*(_[a-z0-9]+)+", token)
        if looks_like_suite and token not in SUITES:
            errors.append(
                f"EXPERIMENTS.md: Eval suites table names {token!r}, which "
                f"is not a registered suite"
            )
    return errors


def main() -> int:
    errors = check_relative_links()
    errors.extend(check_md_references())
    errors.extend(check_lint_registry())
    errors.extend(check_eval_registry())
    errors.extend(check_cli_invocations())
    errors.extend(check_cli_flags())
    readme = REPO_ROOT / "README.md"
    if not readme.is_file():
        errors.append("README.md is missing")
    else:
        errors.extend(run_readme_quickstart(readme))
    for err in errors:
        print(f"DOCS: {err}", file=sys.stderr)
    if not errors:
        print(
            "docs ok: README quickstart ran, all relative links and "
            "doc names and sections cited in code resolve, every quoted "
            "CLI invocation parses, every CLI flag named exists"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
