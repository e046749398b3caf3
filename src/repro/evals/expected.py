"""Expected-results IO: the checked-in eval pins and their structural diff.

``benchmarks/EVAL_<suite>.json`` files are canonical JSON (sorted keys,
two-space indent, trailing newline) so that regenerating an unchanged
suite is a byte-level no-op and any behavioural drift is a minimal,
reviewable diff.  :func:`compare_payloads` produces *precise* drift
messages — each names the suite, the solver, the cell class, and the
field that moved — because "expected file differs" is exactly the
unhelpful failure mode this module exists to avoid.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..errors import ConfigurationError

__all__ = [
    "expected_filename",
    "expected_path",
    "dump_expected",
    "write_expected",
    "load_expected",
    "compare_payloads",
]


def expected_filename(suite: str) -> str:
    """The checked-in file name for a suite's pin."""
    return f"EVAL_{suite}.json"


def expected_path(suite: str, directory: str) -> str:
    """Where a suite's pin lives under ``directory``."""
    return os.path.join(directory, expected_filename(suite))


def dump_expected(payload: Dict) -> str:
    """Canonical text form: sorted keys, indent 2, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_expected(payload: Dict, path: str) -> None:
    """Write a pin in canonical form (creating parent dirs as needed)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_expected(payload))


def load_expected(path: str) -> Dict:
    """Read a pin back; malformed files raise naming the path."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})")
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{path}: expected a JSON object")
    return payload


def _classes_of(payload: Dict, serial: str) -> Dict:
    return payload.get("solvers", {}).get(serial, {}).get("classes", {})


def compare_payloads(expected: Dict, fresh: Dict,
                     label: Optional[str] = None) -> List[str]:
    """Structural diff of two expected payloads; empty list means clean.

    ``expected`` is the checked-in pin, ``fresh`` the just-computed one;
    ``label`` (usually the file path) prefixes every message.  Top-level
    metadata (format, suite, schema version, cell count) is checked
    first; a format mismatch short-circuits, since field-by-field
    comparison across formats is meaningless.
    """
    prefix = f"{label}: " if label else ""
    drift: List[str] = []

    fmt_expected, fmt_fresh = expected.get("format"), fresh.get("format")
    if fmt_expected != fmt_fresh:
        return [
            f"{prefix}expected-results format {fmt_expected!r} != "
            f"current {fmt_fresh!r} (refresh with "
            f"python benchmarks/check_evals.py --update)"
        ]
    for field in ("suite", "store_schema_version", "cells"):
        if expected.get(field) != fresh.get(field):
            drift.append(
                f"{prefix}{field}: expected {expected.get(field)!r}, "
                f"got {fresh.get(field)!r}"
            )

    serials_expected = set(expected.get("solvers", {}))
    serials_fresh = set(fresh.get("solvers", {}))
    for serial in sorted(serials_expected - serials_fresh):
        drift.append(
            f"{prefix}solver {serial} pinned but absent from the fresh "
            f"run (solver removed from the suite?)"
        )
    for serial in sorted(serials_fresh - serials_expected):
        drift.append(
            f"{prefix}solver {serial} ran but has no pinned row "
            f"(new solver? refresh with python benchmarks/check_evals.py "
            f"--update)"
        )

    for serial in sorted(serials_expected & serials_fresh):
        cls_expected = _classes_of(expected, serial)
        cls_fresh = _classes_of(fresh, serial)
        for cls in sorted(set(cls_expected) - set(cls_fresh)):
            drift.append(
                f"{prefix}solver {serial}: cell class {cls!r} pinned "
                f"but absent from the fresh run"
            )
        for cls in sorted(set(cls_fresh) - set(cls_expected)):
            drift.append(
                f"{prefix}solver {serial}: cell class {cls!r} ran but "
                f"is not pinned"
            )
        for cls in sorted(set(cls_expected) & set(cls_fresh)):
            want, got = cls_expected[cls], cls_fresh[cls]
            for field in sorted(set(want) | set(got)):
                if want.get(field) != got.get(field):
                    drift.append(
                        f"{prefix}solver {serial} / class {cls!r}: "
                        f"{field} expected {want.get(field)!r}, "
                        f"got {got.get(field)!r}"
                    )
    return drift

