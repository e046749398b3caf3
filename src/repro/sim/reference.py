"""Straight-line reference engine for differential testing.

:class:`ReferenceWorld` re-implements :meth:`World.step` exactly the way
the original (pre-optimization) engine did:

* the round-start snapshot is captured **eagerly** for every robot at the
  top of every round,
* the sub-round order is **re-sorted** from scratch every round,
* the node index is **fully rebuilt** after any movement,
* board dictionaries are **reallocated** every round.

:class:`~repro.sim.robot.Wait`, which the seed engine did not have,
follows the same rule here in straight-line form.

The optimized :class:`~repro.sim.world.World` must be observably
indistinguishable from this class — same traces, same round counters,
same positions — for any program and any seed.  Tests in
``tests/test_engine_fastpath.py`` assert that equivalence, on mixed
scenarios and on load scenarios that drive each engine hot path.

Keep this file boring: it is the executable specification of one round.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..errors import ProtocolViolation, SimulationError
from .robot import ByzantineAPI, Move, PublicView, RobotAPI, Sleep, Stay, Wait
from .world import World

__all__ = ["ReferenceWorld", "ReferenceRobotAPI", "ReferenceByzantineAPI"]


class _SeedReadPaths:
    """Seed-faithful observation methods (mixed into the reference APIs).

    The original engine rebuilt a ``PublicView`` per co-located robot on
    every :meth:`colocated` call and resolved
    :meth:`colocated_at_round_start` by scanning the eager snapshot of the
    *entire* population.  The optimized engine replaced both; these
    variants keep the old cost model so benchmark comparisons are honest
    and behaviour stays pinned to the original read semantics.
    """

    def colocated(self) -> List[PublicView]:
        me = self._robot
        views = [
            PublicView(claimed_id=r.claimed_id, state=r.state, flag=r.flag)
            for r in self._world._node_index().get(me.node, ())
            if r is not me
        ]
        views.sort(key=lambda v: v.claimed_id)
        return views

    def colocated_at_round_start(self) -> List[PublicView]:
        me = self._robot
        snap = self._world._eager_snapshot
        return sorted(
            (
                view
                for rid, (node, view) in snap.items()
                if node == me.node and rid != me.true_id
            ),
            key=lambda v: v.claimed_id,
        )


class ReferenceRobotAPI(_SeedReadPaths, RobotAPI):
    """Honest-robot API with the seed engine's observation cost model."""


class ReferenceByzantineAPI(_SeedReadPaths, ByzantineAPI):
    """Byzantine API with the seed engine's observation cost model."""


class ReferenceWorld(World):
    """A :class:`World` whose ``step`` is the unoptimized original.

    Synchronous only: the seed engine predates activation schedulers, so
    its ``step`` has no scheduler branch — accepting one here would
    silently run fully synchronously.  The synchronous spec is fine (it
    is the scheduler-free behaviour by definition); anything else raises.
    """

    _api_cls = ReferenceRobotAPI
    _byzantine_api_cls = ReferenceByzantineAPI

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self._scheduler is not None:
            raise SimulationError(
                "ReferenceWorld is the synchronous seed engine; activation "
                "schedulers are only implemented by the optimized World"
            )

    #: Eager round-start snapshot (``true_id -> (node, PublicView)``),
    #: rebuilt at the top of every round like the seed engine did.
    _eager_snapshot: dict = {}

    @property
    def round_start_snapshot(self) -> dict:
        """The eager snapshot dict — exactly the seed engine's attribute
        (empty before the first step, stale positions after a step)."""
        return self._eager_snapshot

    def all_honest_done(self) -> bool:
        """The termination condition by definition: a scan of every
        honest robot (the optimized world keeps a live count instead)."""
        return all(r.terminated for r in self.robots.values() if not r.byzantine)

    def step(self, limit: Optional[int] = None) -> None:
        """Execute one synchronous round exactly like the seed engine
        (``limit`` caps the sleep fast-forward, as in :meth:`World.step`)."""
        # Freeze the round-start snapshot: the paper's "in round t" sets.
        # The seed engine had no view cache and built a fresh PublicView
        # per robot per round; invalidating the cache first reproduces
        # that cost faithfully.  Reads go through the same start_view
        # fields the optimized engine uses.
        rnd = self.round
        snapshot = {}
        for rid, r in self.robots.items():
            r._view_cache = None
            view = r.view()
            r.start_view = view
            r.start_view_round = rnd
            snapshot[rid] = (r.node, view)
        self._eager_snapshot = snapshot
        self.board_current = {}

        order = sorted(
            (r for r in self.robots.values() if not r.terminated),
            key=lambda r: (r.claimed_id, r.true_id),
        )
        self._in_step = True
        try:
            for robot in order:
                if robot.sleep_until > self.round:
                    robot.pending_action = None
                    continue
                if robot.wait_until > self.round:
                    if not self.board_previous.get(robot.node):
                        robot.pending_action = None  # still waiting
                        continue
                    robot.wait_until = 0  # a message wakes it
                try:
                    action = next(robot.program)
                except StopIteration:
                    robot.terminated = True
                    robot.pending_action = None
                    self._order_dirty = True
                    continue
                if isinstance(action, Sleep):
                    if action.rounds < 1:
                        raise SimulationError("Sleep must cover at least 1 round")
                    robot.sleep_until = self.round + action.rounds
                    robot.pending_action = None
                    continue
                if isinstance(action, Wait):
                    until = action.until
                    if until is not None and type(until) is not int:
                        raise SimulationError(
                            f"Wait until must be None or an int round, got {until!r}"
                        )
                    robot.wait_until = math.inf if until is None else until
                    robot.pending_action = None
                    continue
                if isinstance(action, Move):
                    if not robot.byzantine and robot.settled_node is not None:
                        raise ProtocolViolation(
                            f"settled honest robot {robot.true_id} attempted to move"
                        )
                    deg = self.graph.degree(robot.node)
                    if not (1 <= action.port <= deg):
                        raise SimulationError(
                            f"robot {robot.true_id} used invalid port {action.port} "
                            f"at a degree-{deg} node"
                        )
                    robot.pending_action = action
                elif isinstance(action, Stay):
                    robot.pending_action = None
                else:
                    raise SimulationError(
                        f"robot {robot.true_id} yielded {action!r}; expected Move or Stay"
                    )
        finally:
            self._in_step = False

        # Task (ii): simultaneous movement.
        moved = False
        for robot in order:
            act = robot.pending_action
            if act is None:
                continue
            dest, in_port = self.graph.traverse(robot.node, act.port)
            self.trace.record(
                self.round, "move", robot=robot.true_id, src=robot.node,
                dst=dest, port=act.port,
            )
            robot.node = dest
            robot.arrival_port = in_port
            robot.moves_made += 1
            robot.pending_action = None
            moved = True
        if moved:
            self._rebuild_index()

        self.board_previous = self.board_current
        self.round += 1

        # Fast-forward: if every live robot is dormant, jump to the first
        # round anyone wakes (never past ``limit``) in one step — only
        # while an honest robot is live (after that, ``run`` stops).
        live = [r for r in self.robots.values() if not r.terminated]
        if any(not r.byzantine for r in live) and all(
            r.sleep_until > self.round for r in live
        ):
            wake = min(r.sleep_until for r in live)
            if limit is not None:
                wake = min(wake, limit)
            if wake > self.round + 1:
                self.round = wake
                self.board_previous = {}
