"""``repro.lint`` — the determinism linter (``repro lint``).

Static proofs of the byte-identity invariants the dynamic suites only
sample: a shared AST walker (:mod:`repro.lint.base`), five checkers
targeting this repo's real nondeterminism vectors
(:mod:`repro.lint.checkers`), per-checker ``# repro: allow-*`` pragmas,
and structured findings with file:line anchors and fix hints.

Programmatic use::

    from repro.lint import CHECKERS, lint_paths
    findings = lint_paths(["src/repro"])          # [] when clean

The checker registry is ordered and name-addressed; ``repro lint
--select`` and the docs gate (``tools/check_docs.py``) both read it.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .base import Checker, Finding, Module, load_module, run_lint
from .checkers import (
    CanonicalJsonChecker,
    ExceptionHygieneChecker,
    UnorderedIterationChecker,
    UnseededRngChecker,
    WallClockChecker,
)

__all__ = [
    "CHECKERS",
    "Checker",
    "Finding",
    "Module",
    "default_lint_root",
    "lint_paths",
    "load_module",
    "run_lint",
]

#: The registry, in report order.  Adding a checker here is all it takes
#: to put it in the CLI, the CI gate, ``--help``, and the docs check.
CHECKERS: List[Checker] = [
    UnseededRngChecker(),
    WallClockChecker(),
    UnorderedIterationChecker(),
    CanonicalJsonChecker(),
    ExceptionHygieneChecker(),
]


def default_lint_root() -> Path:
    """The installed ``repro`` package directory — what a bare
    ``repro lint`` scans."""
    return Path(__file__).resolve().parents[1]


def lint_paths(
    paths: Optional[Sequence] = None,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the full registry over ``paths`` (default: the repro package).

    Returns the sorted finding list; empty means the tree is clean.
    """
    targets = [Path(p) for p in paths] if paths else [default_lint_root()]
    return run_lint(targets, CHECKERS, select=select)
