"""Group-mode map finding: groups acting as agent / token (Sections 3.2–4).

The paper replaces individual robots with *groups* playing the agent and
token roles, protected by believe-thresholds:

* Section 3.2 (``f ≤ ⌊n/3−1⌋``, weak): three groups A, B, C by sorted ID;
  three runs with rotating roles (A vs B∪C, B vs A∪C, C vs A∪B); the
  token believes commands from ``⌊k/6⌋+1`` agent-group robots, the agent
  believes token presence shown by ``⌊k/3⌋+1`` token-group robots; the
  final map is the majority of the three runs.
* Section 3.3 (``f = O(√n)``, weak): two half groups, one run, simple
  majorities within each group.
* Section 4 (``f ≤ ⌊n/4−1⌋``, strong): two half groups, one run, both
  believe-thresholds fixed at ``⌊n/4⌋`` **distinct claimed IDs** — the
  dedup that defeats ID-faking quorums.

:func:`build_group_plan` turns a roster into the runs' :class:`RunSpec`s
plus a per-robot role map; :func:`group_phase_program` executes the plan
for one honest robot and stores the majority map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from ..errors import ConfigurationError
from ..sim.robot import Action, RobotAPI
from .map_merge import decode_canonical, majority_encoding
from .token_mapping import (
    ExplorerMemo,
    RunSpec,
    agent_program,
    run_slot_rounds,
    token_program,
)

__all__ = ["GroupPlan", "build_group_plan", "group_phase_program", "group_plan_rounds"]


@dataclass(frozen=True)
class GroupPlan:
    """Resolved schedule of group-mode mapping runs.

    ``runs`` are ordered; robot ``rid``'s role in run ``i`` is
    ``"agent"`` if ``rid in runs[i].agent_ids`` else ``"token"``.
    ``end_round`` is the first round after the whole phase.
    """

    runs: Tuple[RunSpec, ...]
    roster: Tuple[int, ...]
    end_round: int


def _split_groups(roster: Sequence[int], parts: int) -> List[List[int]]:
    """Sorted-ID split into ``parts`` contiguous groups (paper's grouping:
    smallest IDs in group A, and so on)."""
    ordered = sorted(roster)
    k = len(ordered)
    base = k // parts
    groups: List[List[int]] = []
    start = 0
    for i in range(parts):
        size = base if i < parts - 1 else k - base * (parts - 1)
        groups.append(ordered[start : start + size])
        start += size
    return groups


def build_group_plan(
    roster: Sequence[int],
    scheme: str,
    start_round: int,
    tick_budget: int,
    n_nodes: int,
) -> GroupPlan:
    """Construct the mapping runs for a grouping scheme.

    ``scheme``:

    * ``"three_groups"`` — Section 3.2 (3 runs, rotating roles).
    * ``"two_groups_majority"`` — Section 3.3 (1 run, in-group majorities).
    * ``"two_groups_strong"`` — Section 4 (1 run, both thresholds ⌊n/4⌋).

    Every honest robot calls this with the identical roster (from the
    hello phase), so all derive the same plan.
    """
    k = len(roster)
    if k < 3:
        raise ConfigurationError("group mapping needs at least 3 robots")
    slot = run_slot_rounds(tick_budget, exchange=True)
    if scheme == "three_groups":
        a, b, c = _split_groups(roster, 3)
        cmd_thr = k // 6 + 1
        presence_thr = k // 3 + 1
        role_cycle = [
            (a, b + c),
            (b, a + c),
            (c, a + b),
        ]
        runs = []
        for i, (agents, tokens) in enumerate(role_cycle):
            runs.append(
                RunSpec(
                    tag=("grp3", i),
                    start_round=start_round + i * slot,
                    tick_budget=tick_budget,
                    agent_ids=frozenset(agents),
                    token_ids=frozenset(tokens),
                    cmd_threshold=cmd_thr,
                    presence_threshold=presence_thr,
                    exchange=True,
                )
            )
    elif scheme == "two_groups_majority":
        a, b = _split_groups(roster, 2)
        runs = [
            RunSpec(
                tag=("grp2", 0),
                start_round=start_round,
                tick_budget=tick_budget,
                agent_ids=frozenset(a),
                token_ids=frozenset(b),
                cmd_threshold=len(a) // 2 + 1,
                presence_threshold=len(b) // 2 + 1,
                exchange=True,
            )
        ]
    elif scheme == "two_groups_strong":
        a, b = _split_groups(roster, 2)
        thr = max(1, n_nodes // 4)
        runs = [
            RunSpec(
                tag=("grpS", 0),
                start_round=start_round,
                tick_budget=tick_budget,
                agent_ids=frozenset(a),
                token_ids=frozenset(b),
                cmd_threshold=thr,
                presence_threshold=thr,
                exchange=True,
            )
        ]
    else:
        raise ConfigurationError(f"unknown grouping scheme {scheme!r}")
    return GroupPlan(
        runs=tuple(runs),
        roster=tuple(sorted(roster)),
        end_round=runs[-1].end_round,
    )


def group_plan_rounds(scheme: str, tick_budget: int) -> int:
    """Rounds the whole group phase occupies (for driver budgets)."""
    slot = run_slot_rounds(tick_budget, exchange=True)
    return 3 * slot if scheme == "three_groups" else slot


def group_phase_program(
    api: RobotAPI,
    plan: GroupPlan,
    out: Dict,
    memo: ExplorerMemo,
) -> Iterator[Action]:
    """Execute all runs of ``plan`` in role order, then vote.

    Stores the decoded majority map into ``out["map"]`` (``None`` when no
    believable map emerged — the beyond-tolerance failure mode).  Agent
    runs explore through the solve's ``memo``.
    """
    scratch: Dict = {}
    for run in plan.runs:
        if api.id in run.agent_ids:
            yield from agent_program(api, run, scratch, memo)
        else:
            yield from token_program(api, run, scratch)
    encodings = [scratch.get(("exchanged", run.tag)) for run in plan.runs]
    winner = majority_encoding(encodings)
    out["map"] = decode_canonical(winner) if winner is not None else None
    out["encodings"] = encodings
