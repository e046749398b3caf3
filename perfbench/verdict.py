"""Correctness verdicts: canonical record digests and their pins.

A workload's records are digested as canonical JSON (sorted keys, no
whitespace).  ``pins.json`` holds the digest each workload produced on
the current code for a fixed set of seeds (``perfbench/pin.py``
regenerates it); a run on a pinned seed must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def canonical(records: List[Dict]) -> str:
    return json.dumps(records, sort_keys=True, separators=(",", ":"))


def digest(records: List[Dict]) -> str:
    return hashlib.sha256(canonical(records).encode("utf-8")).hexdigest()


def load_pins(path: Path = PINS_PATH) -> Dict[str, Dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_digest(workload: str, seed: int, records: List[Dict],
                 pins: Optional[Dict[str, Dict[str, str]]] = None) -> Optional[bool]:
    """``True``/``False`` if a digest is pinned for this workload and
    seed, ``None`` if the seed is not pinned."""
    pins = load_pins() if pins is None else pins
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return None
    return digest(records) == pinned
