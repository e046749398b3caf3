"""Pairing schedules for the Section 3.1 tournament.

The paper has every robot pair with every other robot, in ``O(n)`` pairing
slots, via recursive halving: split the group in two (padding the smaller
half with a dummy), cross-pair the halves in ``⌈G/2⌉`` sub-slots
(``G0_x`` with ``G1_{x+j}``), then recurse into both halves *in
parallel*.  Total slots: ``n/2 + n/4 + … + log n`` extra = ``O(n)``.

:func:`paper_pairing_schedule` reproduces that construction;
:func:`round_robin_schedule` (the classic circle method, ``n−1`` slots)
is provided for the schedule ablation (``tests/test_k_robots.py``).  Both
return a list of *slots*, each a list of disjoint ``(a, b)`` pairs with
``a < b``; every unordered pair of distinct IDs appears in exactly one
slot (verified by property tests).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from ..errors import ConfigurationError

__all__ = ["paper_pairing_schedule", "round_robin_schedule", "pairs_covered"]

Pair = Tuple[int, int]
Slot = List[Pair]


def _norm(a: Optional[int], b: Optional[int]) -> Optional[Pair]:
    if a is None or b is None:
        return None
    return (a, b) if a < b else (b, a)


def paper_pairing_schedule(ids: Sequence[int]) -> List[Slot]:
    """The recursive-halving schedule of Section 3.1.

    Deterministic in the sorted ID list, so every robot derives the same
    schedule locally from the shared roster.
    """
    members: List[Optional[int]] = sorted(set(ids))
    if len(members) != len(list(ids)):
        raise ConfigurationError("pairing roster must not contain duplicates")

    def recurse(group: List[Optional[int]]) -> List[Slot]:
        real = [g for g in group if g is not None]
        if len(real) <= 1:
            return []
        half = (len(group) + 1) // 2
        g0: List[Optional[int]] = group[:half]
        g1: List[Optional[int]] = group[half:]
        while len(g1) < len(g0):
            g1.append(None)  # the paper's dummy robot
        cross: List[Slot] = []
        width = len(g0)
        for j in range(width):
            slot = []
            for x in range(width):
                p = _norm(g0[x], g1[(x + j) % width])
                if p is not None:
                    slot.append(p)
            cross.append(slot)
        sub0 = recurse(g0)
        sub1 = recurse(g1)
        merged: List[Slot] = []
        for t in range(max(len(sub0), len(sub1))):
            slot = []
            if t < len(sub0):
                slot.extend(sub0[t])
            if t < len(sub1):
                slot.extend(sub1[t])
            merged.append(slot)
        return cross + merged

    return [s for s in recurse(members) if s]


def round_robin_schedule(ids: Sequence[int]) -> List[Slot]:
    """Circle-method round robin: all pairs in ``n − 1`` slots (n even).

    Strictly fewer slots than the paper's recursion — the schedule
    ablation uses it to show the paper's bound is schedule-limited, not
    protocol-limited.
    """
    members: List[Optional[int]] = sorted(set(ids))
    if len(members) != len(list(ids)):
        raise ConfigurationError("pairing roster must not contain duplicates")
    if len(members) < 2:
        return []
    if len(members) % 2 == 1:
        members.append(None)
    half = len(members) // 2
    fixed = members[0]
    rest = members[1:]
    slots: List[Slot] = []
    for _ in range(len(members) - 1):
        ring = [fixed] + rest
        slot = []
        for i in range(half):
            p = _norm(ring[i], ring[len(ring) - 1 - i])
            if p is not None:
                slot.append(p)
        slots.append(slot)
        rest = rest[1:] + rest[:1]
    return slots


def pairs_covered(schedule: List[Slot]) -> Set[Pair]:
    """All pairs appearing in a schedule (test helper)."""
    out: Set[Pair] = set()
    for slot in schedule:
        seen_in_slot: Set[int] = set()
        for a, b in slot:
            if a in seen_in_slot or b in seen_in_slot:
                raise ConfigurationError(f"slot reuses a robot: {slot}")
            seen_in_slot.update((a, b))
            out.add((a, b))
    return out
