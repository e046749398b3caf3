"""Robots, their public records, actions, and the API programs see.

The simulator enforces the paper's information model (Section 1.1): an
honest robot program can observe *only*

* its own ID and the known value of ``n``,
* the degree of its current node and the port it arrived through,
* the public records (claimed ID, state, flag) of co-located robots,
* messages posted at its node (same round by earlier sub-round actors,
  or the full board of the previous round).

It acts by yielding :class:`Move` (the shared ``MOVES[port]``),
:class:`Stay` (the shared :data:`STAY`), :class:`Sleep` or :class:`Wait`;
movement is applied simultaneously at the end of the round (the model's
task (ii)).

Byzantine robots run strategy programs bound to a :class:`ByzantineAPI`,
which additionally exposes the whole :class:`~repro.sim.world.World`
(worst-case adaptive adversary) and — in the *strong* model only — the
power to fake the claimed ID (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import ProtocolViolation, SimulationError

__all__ = [
    "TOBESETTLED",
    "SETTLED",
    "Move",
    "MOVES",
    "Stay",
    "STAY",
    "Sleep",
    "Wait",
    "Action",
    "PublicView",
    "Robot",
    "RobotAPI",
    "ByzantineAPI",
]

#: The two robot states of Section 2.2.
TOBESETTLED = "tobeSettled"
SETTLED = "Settled"

#: Sort key for view lists (module-level: no per-call closure allocation).
_CLAIMED_KEY = attrgetter("claimed_id")


@dataclass(frozen=True, init=False)
class Move:
    """End the round by crossing the edge at the given local port.

    ``Move(p)`` with an ``int`` port returns one shared instance per
    port, the way programs share :data:`STAY`: movers then allocate
    nothing.  Programs fetch it as ``MOVES[p]``, a plain dict hit that
    skips the constructor call.  Identity is an optimisation, never a
    contract; compare moves with ``==``.  Subclasses and non-``int``
    ports get a fresh instance, as before.
    """

    port: int

    def __new__(cls, port: int) -> "Move":
        shared = cls is Move and type(port) is int
        move = MOVES.get(port) if shared else None
        if move is None:
            move = object.__new__(cls)
            object.__setattr__(move, "port", port)  # frozen: bypass __setattr__
            if shared:
                MOVES[port] = move
        return move

    def __getnewargs__(self) -> Tuple[int]:
        # pickle and copy rebuild through ``__new__``, which needs the port.
        return (self.port,)


class _MoveTable(dict):
    """Port -> shared :class:`Move`; a miss builds it through ``Move(p)``,
    which files it here when ``p`` is an ``int``."""

    __slots__ = ()

    def __missing__(self, port: int) -> Move:
        return Move(port)


#: The shared :class:`Move` of each ``int`` port, filled on first use:
#: ``MOVES[p] is Move(p)``.
MOVES: Dict[int, Move] = _MoveTable()


@dataclass(frozen=True)
class Stay:
    """End the round without moving."""


#: The one :class:`Stay` programs yield.  ``Stay`` is a frozen dataclass
#: with no fields, so every instance is interchangeable; sharing one
#: spares hot loops an allocation per idle round.
STAY = Stay()


@dataclass(frozen=True)
class Sleep:
    """End the round without moving, and stay dormant for ``rounds`` rounds.

    Semantically identical to yielding :class:`Stay` ``rounds`` times with
    no observations in between (public record frozen, no messages posted).
    Exists so that protocol phases with fixed slot lengths (the paper's
    "wait at the start node until the next stage begins", footnote 11)
    don't cost one generator resume per idle round; when *every* robot is
    asleep the scheduler fast-forwards in one jump.
    """

    rounds: int


@dataclass(frozen=True)
class Wait:
    """End the round without moving, and listen until round ``until``.

    The robot stays this round and, without its program being resumed,
    in every later round before ``until`` (forever when ``None``).  It
    is resumed early in the first round in which it is activated and
    the previous round's board at its node holds a message.  Every
    waited round in which it is activated still counts one activation.

    Observably identical to the loop ::

        yield STAY
        while (until is None or api.round < until) and not api.messages_prev():
            yield STAY

    under any scheduler, so a listening robot (a token awaiting its
    agent's next command, a Byzantine robot that never moves) costs no
    generator resume per round.  Unlike :class:`Sleep`, a waiting robot
    blocks the all-asleep fast-forward exactly as a :class:`Stay` does.
    """

    until: Optional[int] = None


Action = object  # Move | Stay | Sleep | Wait — kept loose for isinstance dispatch.


@dataclass(frozen=True)
class PublicView:
    """What co-located robots can see of a robot in a given instant.

    ``claimed_id`` equals the true ID for honest and weak-Byzantine robots;
    strong Byzantine robots choose it freely each round (Section 4).
    """

    claimed_id: int
    state: str
    flag: int


class Robot:
    """Simulator-side robot record.  Programs never touch this directly."""

    __slots__ = (
        "true_id",
        "node",
        "arrival_port",
        "byzantine",
        "claimed_id",
        "state",
        "flag",
        "program",
        "terminated",
        "settled_node",
        "moves_made",
        "pending_action",
        "sleep_until",
        "wait_until",
        "_view_cache",
        "start_view",
        "start_view_round",
        "start_claimed",
        "start_state",
        "start_flag",
    )

    def __init__(
        self,
        true_id: int,
        node: int,
        program: Iterator[Action],
        byzantine: bool,
    ):
        self.true_id = true_id
        self.node = node
        self.arrival_port: Optional[int] = None
        self.byzantine = byzantine
        self.claimed_id = true_id
        self.state = TOBESETTLED
        self.flag = 0
        self.program = program
        self.terminated = False
        self.settled_node: Optional[int] = None
        self.moves_made = 0
        self.pending_action: Optional[Action] = None
        self.sleep_until = 0  # robot is dormant while world.round < sleep_until
        # Robot listens, un-resumed, while world.round < wait_until and
        # its node's previous-round board is empty (math.inf: no deadline).
        self.wait_until: float = 0
        self._view_cache: Optional[PublicView] = None
        # Copy-on-write round-start record: raw fields captured just
        # before the first public-record mutation of a round (allocation
        # free); the PublicView is materialised lazily on first read.
        # While ``start_view_round`` lags the current round the record is
        # unchanged since the round began and the live view doubles as
        # the round-start view.
        self.start_view: Optional[PublicView] = None
        self.start_view_round = -1
        self.start_claimed = true_id
        self.start_state = self.state
        self.start_flag = 0

    def view(self) -> PublicView:
        """Snapshot of this robot's public record (cached until it changes)."""
        v = self._view_cache
        if v is None:
            v = PublicView(claimed_id=self.claimed_id, state=self.state, flag=self.flag)
            self._view_cache = v
        return v

    def _touch_record(self, world: "World") -> None:  # noqa: F821 - forward ref
        """Pre-mutation hook for the public record (claimed ID, state, flag).

        First mutation within a round copies the raw record fields as the
        round-start state (copy-on-write, no allocation); every mutation
        invalidates the cached live view.  Mutations outside a round
        belong to the upcoming round's start state — no capture then.
        """
        if world._in_step and self.start_view_round != world.round:
            self.start_view_round = world.round
            self.start_claimed = self.claimed_id
            self.start_state = self.state
            self.start_flag = self.flag
            self.start_view = self._view_cache  # may be None: built on read
        self._view_cache = None

    def _start_view(self) -> PublicView:
        """The round-start view, materialised on demand (only valid when
        ``start_view_round`` equals the current round)."""
        v = self.start_view
        if v is None:
            v = PublicView(
                claimed_id=self.start_claimed,
                state=self.start_state,
                flag=self.start_flag,
            )
            self.start_view = v
        return v


class RobotAPI:
    """The honest robot's window into the world.

    One instance per robot, handed to its program generator.  All methods
    are safe to call any number of times within the robot's sub-round.
    """

    __slots__ = ("_world", "_robot", "_ports")

    def __init__(self, world: "World", robot: Robot):  # noqa: F821 - forward ref
        self._world = world
        self._robot = robot
        self._ports = world.graph._ports  # the world's port rows, for degree()

    # -- identity & global knowledge the model grants ------------------- #

    @property
    def id(self) -> int:
        """This robot's own (true) ID."""
        return self._robot.true_id

    @property
    def n(self) -> int:
        """Number of graph nodes — known to all robots (Section 1.1)."""
        return self._world.graph.n

    @property
    def round(self) -> int:
        """Current round number (synchronous system: globally shared)."""
        return self._world.round

    # -- local observation ---------------------------------------------- #

    def degree(self) -> int:
        """Degree of (== number of ports at) the current node."""
        return len(self._ports[self._robot.node])

    @property
    def arrival_port(self) -> Optional[int]:
        """Port through which this robot entered its current node.

        ``None`` before the first move (initial placement has no port).
        """
        return self._robot.arrival_port

    def colocated(self) -> List[PublicView]:
        """Live public records of other robots at this node, sorted by
        claimed ID.  "Live" = including updates made earlier this round by
        robots with smaller sub-round rank (the paper's sub-round rule)."""
        me = self._robot
        views = [
            r.view()
            for r in self._world._node_index().get(me.node, ())
            if r is not me
        ]
        views.sort(key=_CLAIMED_KEY)
        return views

    def colocated_at_round_start(self) -> List[PublicView]:
        """Public records of co-located robots as of the *start* of this
        round (after last round's movement, before anyone's sub-round).

        This is the paper's "``S_s(v)`` and ``S_tbs(v)`` … in round ``t``"
        snapshot; comparing it with :meth:`colocated` tells a robot who
        "changed its state to Settled" during the current round.

        Positions are stable within a round (movement is simultaneous at
        round end), so only the *records* need round-start resolution: a
        copy-on-write ``start_view`` is served for robots whose record
        changed earlier this round, the (cached) live view otherwise.
        """
        me = self._robot
        world = self._world
        rnd = world.round
        views = []
        for r in world._node_index().get(me.node, ()):
            if r is me:
                continue
            views.append(r._start_view() if r.start_view_round == rnd else r.view())
        views.sort(key=_CLAIMED_KEY)
        return views

    # -- public record updates ------------------------------------------ #

    def set_flag(self, value: int) -> None:
        """Publish the 0/1 intent flag of Section 2.2."""
        if value not in (0, 1):
            raise ProtocolViolation("flag must be 0 or 1")
        me = self._robot
        me._touch_record(self._world)
        me.flag = value

    def settle(self) -> None:
        """Settle at the current node: state := Settled, forever.

        The simulator records the settle position for validation; an honest
        robot must never move nor change state afterwards (enforced).
        """
        me = self._robot
        if me.state == SETTLED and me.settled_node != me.node:
            raise ProtocolViolation("honest robot attempted to re-settle elsewhere")
        world = self._world
        me._touch_record(world)
        me.state = SETTLED
        me.settled_node = me.node
        trace = world.trace
        if trace.keep_events:
            trace.record(world.round, "settle", robot=me.true_id, node=me.node)
        else:
            trace.bump("settle")

    # -- messaging ------------------------------------------------------- #

    def say(self, payload: Any) -> None:
        """Post a message on the current node's board for this round."""
        me = self._robot
        board = self._world.board_current
        lst = board.get(me.node)
        if lst is None:
            board[me.node] = [(me.claimed_id, payload)]
        else:
            lst.append((me.claimed_id, payload))

    def messages(self) -> List[Tuple[int, Any]]:
        """Messages posted at this node *this* round so far
        (i.e. by robots of smaller sub-round rank), as
        ``(claimed_sender_id, payload)`` pairs."""
        return list(self._world.board_current.get(self._robot.node, ()))

    def messages_prev(self) -> List[Tuple[int, Any]]:
        """The complete message board of the previous round at this node.

        Use this when a protocol step needs *everyone's* message regardless
        of ID order (costs one round of latency; see EXPERIMENTS.md, "What
        is simulated and what is charged")."""
        return list(self._world.board_previous.get(self._robot.node, ()))

    # -- misc ------------------------------------------------------------ #

    def log(self, kind: str, **data: Any) -> None:
        """Emit a trace event (observability only — no protocol effect)."""
        self._world.trace.record(self._world.round, kind, robot=self._robot.true_id, **data)


class ByzantineAPI(RobotAPI):
    """API handed to Byzantine strategy programs.

    Adds omniscient world access (worst-case adversary) and, in the strong
    model, ID faking.  Weak Byzantine robots may lie, squat, move and spam
    arbitrarily — but their claimed ID is pinned by the simulator
    (Section 1.1, following Dieudonné–Pelc–Peleg [24]).
    """

    __slots__ = ()

    @property
    def world(self) -> "World":  # noqa: F821
        """Full read access to the simulator state (adaptive adversary)."""
        return self._world

    def set_state(self, state: str) -> None:
        """Publish an arbitrary state string (lie freely)."""
        self._robot._touch_record(self._world)
        self._robot.state = state

    def set_claimed_id(self, claimed: int) -> None:
        """Fake the ID in the public record — strong Byzantine only.

        The claim must be an ``int`` (not a ``bool``): claimed IDs order
        the sub-rounds, and a value that does not compare with the other
        IDs would break that sort.
        """
        if self._world.model != "strong":
            raise SimulationError(
                "ID faking requires the strong Byzantine model (got weak)"
            )
        if type(claimed) is not int:
            raise SimulationError(f"claimed ID must be an int, got {claimed!r}")
        if claimed != self._robot.claimed_id:
            self._robot._touch_record(self._world)
            self._robot.claimed_id = claimed
            self._world._order_dirty = True  # sub-round rank changed
