"""Reusable program phases composed by the theorem drivers.

Each phase is a generator fragment (``yield from``-composable) operating
through the robot API only.  Drivers chain them into complete per-robot
programs; results flow through a per-robot scratch dict (generators
cannot return values mid-composition).

Phases
------
* :func:`roster_phase` — 2 rounds: learn the IDs of the co-located robots
  from *physical presence* (public records), not messages — a robot is one
  body and can present only one claimed ID per round, which is what stops
  strong Byzantine robots from inflating ``k`` with phantom identities.
* :func:`pairing_phase` — the Section 3.1 tournament: run the token
  protocol against every roster member (both role orders), then take the
  majority map.
* :func:`rank_dispersion_phase` — Section 4 Phase 2: deterministic node
  ordering by canonical BFS; the robot ranked ``i`` walks to ``v(i)`` and
  settles.  Trustless — no negotiation for Byzantine robots to poison.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.traversal import bfs_order, navigate
from ..errors import ConfigurationError
from ..mapping.map_merge import majority_map
from ..mapping.pairing import paper_pairing_schedule, round_robin_schedule
from ..mapping.token_mapping import (
    ExplorerMemo,
    RunSpec,
    agent_program,
    run_slot_rounds,
    sleep_until,
    token_program,
)
from ..sim.robot import MOVES, STAY, Action, RobotAPI

__all__ = [
    "roster_phase",
    "pairing_phase",
    "pairing_phase_rounds",
    "rank_dispersion_phase",
]


def roster_phase(api: RobotAPI, out: Dict) -> Iterator[Action]:
    """Learn the gathered roster (2 rounds); writes ``out["roster"]``.

    Round 0 gives Byzantine robots their sub-round to fake IDs (strong
    model); round 1 reads the resulting round-start snapshot, so the
    adversary's worst case is captured.  Duplicate claimed IDs collapse —
    a strong Byzantine robot can hide behind an honest ID but never mint
    extra roster entries.
    """
    yield STAY
    views = api.colocated_at_round_start()
    out["roster"] = sorted({v.claimed_id for v in views} | {api.id})
    yield STAY


#: Pairing schedule builders selectable by the Theorem 2/3 drivers: the
#: paper's recursive halving, and the circle-method round robin used by
#: the schedule ablation (same protocol, ~half the slots).
SCHEDULES = {
    "paper": paper_pairing_schedule,
    "round_robin": round_robin_schedule,
}


def pairing_phase_rounds(n_roster: int, tick_budget: int, schedule: str = "paper") -> int:
    """Upper bound on the rounds the pairing tournament occupies."""
    slots = len(_schedule_fn(schedule)(range(1, n_roster + 1)))
    return slots * 2 * run_slot_rounds(tick_budget, exchange=False)


def _schedule_fn(schedule: str):
    try:
        return SCHEDULES[schedule]
    except KeyError:
        raise ConfigurationError(
            f"unknown pairing schedule {schedule!r}; known: {sorted(SCHEDULES)}"
        ) from None


def pairing_phase(
    api: RobotAPI,
    out: Dict,
    tick_budget: int,
    base_round: int,
    memo: ExplorerMemo,
    schedule: str = "paper",
) -> Iterator[Action]:
    """Section 3.1: pair with every roster member, vote over the maps.

    All honest robots derive the identical schedule from the shared
    roster, so partners rendezvous by round arithmetic alone.  Robots
    left unpaired in a slot (odd roster padding) sleep it out, exactly
    the paper's "waits at the start node until the next stage begins".

    Writes ``out["map"]`` (decoded majority map rooted at the gathering
    node, or ``None`` if no pairing produced a map).  Agent runs explore
    through the solve's ``memo``, which also decodes the winner (once per
    solve, shared by every robot that elected it).
    """
    roster: List[int] = out["roster"]
    schedule = _schedule_fn(schedule)(roster)
    run_len = run_slot_rounds(tick_budget, exchange=False)
    slot_len = 2 * run_len
    scratch: Dict = {}
    my_agent_tags = []
    for slot_idx, slot in enumerate(schedule):
        slot_start = base_round + slot_idx * slot_len
        mine = next(((a, b) for (a, b) in slot if api.id in (a, b)), None)
        if mine is None:
            yield from sleep_until(api, slot_start + slot_len)
            continue
        a, b = mine
        for sub, (agent, token) in enumerate(((a, b), (b, a))):
            run = RunSpec(
                tag=("pair", slot_idx, sub, a, b),
                start_round=slot_start + sub * run_len,
                tick_budget=tick_budget,
                agent_ids=frozenset({agent}),
                token_ids=frozenset({token}),
                cmd_threshold=1,
                presence_threshold=1,
                exchange=False,
            )
            if api.id == agent:
                my_agent_tags.append(run.tag)
                yield from agent_program(api, run, scratch, memo)
            else:
                yield from token_program(api, run, scratch)
    # Align everyone to the end of the phase before voting/dispersing.
    yield from sleep_until(api, base_round + len(schedule) * slot_len)
    candidates = [scratch.get(tag) for tag in my_agent_tags]
    out["map"] = majority_map(candidates, memo.decode)
    out["n_candidates"] = len(candidates)
    out["n_good_candidates"] = sum(1 for c in candidates if c is not None)


def rank_dispersion_phase(
    api: RobotAPI,
    map_graph: PortLabeledGraph,
    map_root: int,
    roster: List[int],
) -> Iterator[Action]:
    """Section 4 Phase 2: rooted rank dispersion (strong-Byzantine safe).

    The deterministic ordering ``v(1), …, v(n)`` is the canonical BFS
    order of the shared map; robot ranked ``i`` (by sorted roster ID)
    settles at ``v(i)``.  Honest robots hold distinct IDs, hence distinct
    ranks, hence distinct nodes — no amount of lying changes where an
    honest robot walks.  At most ``n − 1`` move rounds.
    """
    order = bfs_order(map_graph, map_root)
    ranked = sorted(roster)
    try:
        rank = ranked.index(api.id)
    except ValueError:  # pragma: no cover - roster always includes self
        api.log("rank_missing")
        return
    if rank >= len(order):
        # Only reachable if phantom IDs inflated the roster past n, which
        # the physical-presence roster rules out; fail visibly if it does.
        api.log("rank_overflow", rank=rank)
        return
    for port in navigate(map_graph, map_root, order[rank]):
        yield MOVES[port]
    api.settle()
