"""Procedure **Dispersion-Using-Map** (paper Section 2.2) — the core.

Pre-condition: the robot privately holds a map (a port-labeled graph
port-isomorphic to the world graph) and knows which map node it currently
stands on.  It walks the Euler tour of a DFS tree of its map and, at every
node it enters, runs the settle-negotiation of Section 2.2:

* ``S_s`` / ``S_tbs`` — co-located robots claiming ``Settled`` /
  ``tobeSettled`` *at the start of the round* (the paper's "in round t").
* ``A_r`` — per-map-node array of recorded settled IDs.
* ``B_r`` — blacklist: IDs seen settled at one node and later present at
  another (Step 4) — only possible for Byzantine robots (Lemma 2).
* the 0/1 **flag** ("I intend to settle here") drives the within-round
  tie-break: smaller-ID robots act in earlier sub-rounds (our scheduler's
  ID-ordered resumes), larger-ID robots observe what they did.

One deliberate clarification versus the paper's prose: a robot raises its
flag *before settling on every settle path* (the paper sets it only in
Steps 2b/3b).  Without this, two honest robots arriving together can both
settle — the smaller via Step 1 with flag 0, the larger via Step 2b's
"nobody has flag 1 ⇒ settle" — contradicting Lemma 3's proof, which
explicitly routes the larger robot through Step 2b's observe branch.
Raising the flag on every settle path is what makes that proof go through,
and our property tests (`tests/test_lemmas.py`) verify Lemmas 2–4 under
the full adversary zoo.

Round accounting: the robot spends exactly one round per node it enters,
and the Euler tour has ``2(n−1)`` moves, so the procedure terminates in
``O(n)`` rounds (Lemma 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set

from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.traversal import euler_tour
from ..sim.robot import MOVES, SETTLED, Action, RobotAPI

__all__ = ["DispersionMemory", "dispersion_using_map", "dispersion_rounds_bound"]


def dispersion_rounds_bound(n: int) -> int:
    """Upper bound on rounds the procedure needs: one per tour node entry."""
    return 2 * n + 2


@dataclass
class DispersionMemory:
    """The per-robot state of Section 2.2, exposed for tests and metrics.

    Attributes
    ----------
    recorded:
        ``A_r`` — map node -> set of claimed IDs recorded as settled there.
    blacklist:
        ``B_r`` — claimed IDs this robot has proven Byzantine.
    recorded_at:
        claimed ID -> map node where it was *first* recorded (drives the
        Step 4 check "settled earlier at some node before v").
    settled_map_node:
        Where (in map coordinates) this robot settled, or ``None``.
    """

    recorded: Dict[int, Set[int]] = field(default_factory=dict)
    blacklist: Set[int] = field(default_factory=set)
    recorded_at: Dict[int, int] = field(default_factory=dict)
    settled_map_node: Optional[int] = None


_SETTLE = "settle"
_MOVE_ON = "move_on"


def _decide(
    api: RobotAPI,
    mem: DispersionMemory,
    map_pos: int,
) -> str:
    """Steps 1–3 of the Section 2.2 procedure, for one round at one node.

    Returns ``_SETTLE`` or ``_MOVE_ON``; records settled IDs into
    ``mem.recorded`` on the way.  Must be called after the Step 4
    blacklist update for this round.
    """
    my_id = api.id
    snapshot = api.colocated_at_round_start()
    # Byzantine robots may publish arbitrary state strings; anything that
    # is not exactly `Settled` counts as tobeSettled for set construction.
    settled_ids = {v.claimed_id for v in snapshot if v.state == SETTLED}
    tbs_ids = {v.claimed_id for v in snapshot if v.state != SETTLED}
    black = mem.blacklist

    settled_live = settled_ids - black
    if settled_live:
        # Step 3c: someone (non-blacklisted) is already settled here.
        _record(mem, map_pos, settled_live)
        return _MOVE_ON

    # From here on: every snapshot-settled robot is blacklisted (Steps 3a/3b)
    # or there were none (Steps 1/2) — the two cases share their logic.
    smaller_contenders = {i for i in tbs_ids if i < my_id and i not in black}
    if not smaller_contenders:
        # Step 1 / 2a / 3a: nothing stops us.
        return _SETTLE

    # Step 2b / 3b: the flag dance.
    api.set_flag(1)
    live = api.colocated()
    contenders = tbs_ids - black
    others_flagged = any(
        v.flag == 1 and v.claimed_id in contenders for v in live
    )
    if not others_flagged:
        return _SETTLE
    # Wait and observe the smaller-ID contenders (they acted in earlier
    # sub-rounds): did any of them settle this round?
    settled_now = {
        v.claimed_id
        for v in live
        if v.state == SETTLED and v.claimed_id in smaller_contenders
    }
    if settled_now:
        _record(mem, map_pos, settled_now)
        return _MOVE_ON
    return _SETTLE


def _record(mem: DispersionMemory, map_pos: int, ids: Set[int]) -> None:
    mem.recorded.setdefault(map_pos, set()).update(ids)
    for i in ids:
        mem.recorded_at.setdefault(i, map_pos)


def _blacklist_scan(api: RobotAPI, mem: DispersionMemory, map_pos: int) -> None:
    """Step 4: blacklist any robot recorded settled at a *different* node."""
    for view in api.colocated_at_round_start():
        cid = view.claimed_id
        first = mem.recorded_at.get(cid)
        if first is not None and first != map_pos and cid not in mem.blacklist:
            mem.blacklist.add(cid)
            api.log("blacklist", target=cid, recorded_at=first, seen_at=map_pos)


def dispersion_using_map(
    api: RobotAPI,
    map_graph: PortLabeledGraph,
    start_map_node: int,
    memory: Optional[DispersionMemory] = None,
) -> Iterator[Action]:
    """Generator implementing Dispersion-Using-Map for one honest robot.

    Yields one action per round.  Ends (``return``) once the robot has
    settled — the paper's termination — or, if the tour is exhausted
    without settling (impossible under the theorems' pre-conditions;
    reachable in beyond-tolerance experiments), terminates unsettled so
    the validator reports the failure instead of the simulation hanging.

    Parameters
    ----------
    api:
        The robot's world API.
    map_graph / start_map_node:
        The robot's private map and its position on it.  The map must be
        port-preserving isomorphic to the world graph for the port
        tracking to stay sound; a wrong map is detected lazily (invalid
        port ⇒ graceful unsettled termination).
    memory:
        Pass a :class:`DispersionMemory` to observe ``A_r``/``B_r`` from
        tests; a fresh one is created otherwise.
    """
    mem = memory if memory is not None else DispersionMemory()
    tour = euler_tour(map_graph, start_map_node)
    pos = start_map_node
    step_idx = 0

    while True:
        api.set_flag(0)
        _blacklist_scan(api, mem, pos)
        verdict = _decide(api, mem, pos)
        if verdict == _SETTLE:
            api.set_flag(1)
            api.settle()
            mem.settled_map_node = pos
            return
        if step_idx >= len(tour):
            # Tour exhausted without settling: theoretically impossible with
            # a correct map and at most n robots (Lemma 4's pigeonhole);
            # reachable only in beyond-bound experiments.  Fail visibly.
            api.log("tour_exhausted_unsettled")
            return
        step = tour[step_idx]
        step_idx += 1
        if step.port > api.degree():
            # Map disagrees with reality — garbage map (Byzantine-corrupted
            # mapping phase).  Terminate unsettled; validator flags it.
            api.log("map_mismatch", port=step.port, degree=api.degree())
            return
        pos = step.node
        yield MOVES[step.port]
