"""Checker framework for the determinism linter (``repro lint``).

The byte-identity invariant every layer of this repo rests on — records,
store keys, and stored bytes identical across serial / parallel /
batched / resumed / warm execution — is checked *dynamically* by the
determinism and chaos suites, but those sample a handful of scenarios.
This package checks the same invariant *statically*: a shared AST walker
parses every file once, a registry of :class:`Checker` passes inspects
the trees for this codebase's known nondeterminism vectors (unseeded
RNG, wall clocks, unordered set iteration, unsorted JSON, overly broad
exception handlers), and structured :class:`Finding` values come back
with ``file:line`` anchors and fix hints.

Pragmas
-------
A finding is suppressed by a ``# repro:`` pragma comment naming the
checker's allow token (each checker documents its own, e.g.
``allow-wallclock``):

* ``# repro: allow-wallclock`` on the reported line silences that line.
  On a standalone comment line, it silences the *next* line instead —
  useful when the offending line has no room left.
* ``# repro: allow-wallclock file`` anywhere in the file silences the
  checker for the whole module (the per-file allowlist mechanism).

A pragma should always carry a justification after the token — pragmas
without a *why* defeat the review-time purpose of the linter.

Scoping
-------
Checkers can restrict themselves by path: ``only_suffixes`` limits a
checker to the named modules (the canonical-JSON pass only polices the
store writers).  Suffixes match against the POSIX form of the file's
absolute path, so they work from any scan root.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Checker",
    "Finding",
    "Module",
    "load_module",
    "run_lint",
]

#: ``# repro: <tokens>`` — tokens are comma/space separated allow names,
#: optionally followed by ``file`` (module scope) and a justification.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*(?P<body>[A-Za-z0-9_,\- ]+)")
_ALLOW_TOKEN_RE = re.compile(r"^allow-[a-z0-9-]+$")


@dataclass(frozen=True)
class Finding:
    """One linter finding, anchored to ``path:line:col``."""

    checker: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def sort_key(self) -> Tuple:
        return (self.path, self.line, self.col, self.checker, self.message)

    def to_dict(self) -> Dict:
        """JSON-safe form (the ``--format json`` payload element)."""
        out = {
            "checker": self.checker,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        return out

    def format(self) -> str:
        """Human one-liner: ``path:line:col: [checker] message``."""
        text = f"{self.path}:{self.line}:{self.col}: [{self.checker}] {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class Module:
    """One parsed source file plus its pragma tables."""

    path: Path
    #: Display path (relative to the scan root when walked from a dir).
    relpath: str
    tree: ast.Module
    source: str
    #: line number -> allow tokens active on that line.
    line_pragmas: Dict[int, Set[str]] = field(default_factory=dict)
    #: allow tokens active for the whole file.
    file_pragmas: Set[str] = field(default_factory=set)

    @property
    def posix(self) -> str:
        """POSIX form of the absolute path (what suffix scoping matches)."""
        return self.path.as_posix()

    def allowed(self, pragma: str, line: int) -> bool:
        """Is ``pragma`` active on ``line`` (or file-wide)?"""
        return pragma in self.file_pragmas or pragma in self.line_pragmas.get(line, ())


def _extract_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Collect pragma comments via the tokenizer (immune to ``#`` inside
    string literals).  Returns ``(line pragmas, file pragmas)``."""
    line_pragmas: Dict[int, Set[str]] = {}
    file_pragmas: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(tok.string)
            if not match:
                continue
            words = re.split(r"[,\s]+", match.group("body").strip())
            allows = {w for w in words if _ALLOW_TOKEN_RE.match(w)}
            if not allows:
                continue
            if "file" in words:
                file_pragmas |= allows
                continue
            line = tok.start[0]
            line_pragmas.setdefault(line, set()).update(allows)
            # A standalone comment annotates the statement below it.
            before = tok.line[: tok.start[1]]
            if not before.strip():
                line_pragmas.setdefault(line + 1, set()).update(allows)
    except tokenize.TokenError:
        pass  # the ast.parse in load_module reports the real error
    return line_pragmas, file_pragmas


def load_module(path: Path, relpath: Optional[str] = None) -> Module:
    """Parse one file into a :class:`Module` (raises ``SyntaxError``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    line_pragmas, file_pragmas = _extract_pragmas(source)
    return Module(
        path=path,
        relpath=relpath if relpath is not None else str(path),
        tree=tree,
        source=source,
        line_pragmas=line_pragmas,
        file_pragmas=file_pragmas,
    )


class Checker:
    """One static-analysis pass over a single module.

    Subclasses set the identity fields and implement :meth:`check`,
    yielding findings through :meth:`emit` (which applies the pragma
    filter).  ``only_suffixes`` scopes the pass by path suffix.
    """

    #: Registry name (``repro lint --select`` and finding labels).
    name: str = ""
    #: Allow token that suppresses this checker's findings.
    pragma: str = ""
    #: One-line description (``repro lint --help`` and the registry table).
    description: str = ""
    #: Default fix hint attached to findings.
    hint: str = ""
    #: If non-empty, only modules matching one of these path suffixes.
    only_suffixes: Tuple[str, ...] = ()

    def applies_to(self, module: Module) -> bool:
        return not self.only_suffixes or any(
            module.posix.endswith(s) for s in self.only_suffixes
        )

    def emit(
        self,
        module: Module,
        node: ast.AST,
        message: str,
        hint: Optional[str] = None,
    ) -> Optional[Finding]:
        """Build a finding for ``node`` unless a pragma suppresses it."""
        line = getattr(node, "lineno", 1)
        if module.allowed(self.pragma, line):
            return None
        return Finding(
            checker=self.name,
            path=module.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=self.hint if hint is None else hint,
        )

    def check(self, module: Module) -> Iterator[Finding]:
        raise NotImplementedError


# --------------------------------------------------------------------- #
# Import resolution (shared by the RNG and wall-clock checkers)
# --------------------------------------------------------------------- #

class ImportMap(ast.NodeVisitor):
    """Local name -> dotted origin, from every import in a module.

    ``import numpy as np`` maps ``np -> numpy``; ``from random import
    shuffle as sh`` maps ``sh -> random.shuffle``; ``from datetime
    import datetime`` maps ``datetime -> datetime.datetime``.  Good
    enough to resolve attribute chains like ``np.random.default_rng``
    to ``numpy.random.default_rng`` without executing anything.
    """

    def __init__(self) -> None:
        self.names: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            # `import a.b` binds `a`; `import a.b as c` binds c -> a.b.
            self.names[local] = alias.name if alias.asname else alias.name.split(".", 1)[0]

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level or node.module is None:
            return  # relative imports never shadow stdlib rng/clock names
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.names[local] = f"{node.module}.{alias.name}"

    @classmethod
    def of(cls, tree: ast.AST) -> "ImportMap":
        mapper = cls()
        mapper.visit(tree)
        return mapper

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted origin of a Name/Attribute chain, or ``None``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.names.get(node.id)
        if origin is None:
            return None
        return ".".join([origin] + list(reversed(parts)))


# --------------------------------------------------------------------- #
# Walking and running
# --------------------------------------------------------------------- #

def iter_python_files(root: Path) -> List[Path]:
    """Every ``*.py`` under ``root``, sorted (deterministic scan order)."""
    return sorted(p for p in root.rglob("*.py") if p.is_file())


def collect_modules(paths: Sequence[Path]) -> Tuple[List[Module], List[Finding]]:
    """Parse every target once; syntax errors become findings, not
    crashes (a linter that dies on the file it should report is
    useless in CI)."""
    modules: List[Module] = []
    errors: List[Finding] = []
    for target in paths:
        target = Path(target)
        if target.is_dir():
            files = [(f, f.relative_to(target).as_posix()) for f in iter_python_files(target)]
        else:
            files = [(target, target.name)]
        for path, relpath in files:
            try:
                modules.append(load_module(path, relpath))
            except SyntaxError as exc:
                errors.append(Finding(
                    checker="syntax",
                    path=relpath,
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                ))
    return modules, errors


def run_lint(
    paths: Sequence[Path],
    checkers: Sequence[Checker],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run ``checkers`` over every Python file reachable from ``paths``.

    ``select`` restricts to the named checkers.  Findings come back
    sorted by ``(path, line, col, checker)`` — a deterministic report
    from the determinism linter is table stakes.
    """
    if select is not None:
        wanted = set(select)
        known = {c.name for c in checkers}
        unknown = sorted(wanted - known)
        if unknown:
            raise ValueError(f"unknown checker(s): {', '.join(unknown)}")
        checkers = [c for c in checkers if c.name in wanted]
    modules, findings = collect_modules(paths)
    for checker in checkers:
        for module in modules:
            if checker.applies_to(module):
                findings.extend(checker.check(module))
    return sorted(findings, key=Finding.sort_key)
