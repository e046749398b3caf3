"""The synchronous world: robots on a port-labeled graph, round by round.

Implements the model of Section 1.1 plus the sub-round refinement of
Section 2.2:

* Each round, robots act in ascending ``(claimed_id, true_id)`` order —
  the paper's "robot of rank Y waits until sub-round Y".  A robot's
  program is resumed exactly once per round and must yield a
  :class:`~repro.sim.robot.Move` or :class:`~repro.sim.robot.Stay`.
* During its sub-round a robot observes live public records (smaller-rank
  robots have already acted this round) and the frozen *round-start
  snapshot* (who was where, in which state, when the round began).
* All movements are applied simultaneously at the end of the round.
* Message boards are per-node, per-round; the previous round's board stays
  readable (one-round-latency channel for order-independent exchanges).

The world also keeps **charged rounds**: phases the paper prices via prior
work (gathering, Find-Map) add their cited round cost to the accounting
without being stepped one by one (see EXPERIMENTS.md, "What is simulated
and what is charged").  Every result object reports simulated and charged
rounds separately.

Hot-path engineering (see PERFORMANCE.md for measurements):

* The round-start snapshot is **lazy**: no ``PublicView`` is built unless
  a program asks for one.  Robots carry a copy-on-write ``start_view``
  captured just before the first public-record mutation of a round.
* The sub-round order is **cached** and re-sorted only after a claimed-ID
  change, a termination, or a robot addition — not every round.
* The node index is **rebuilt on read**: movement, teleports and
  additions only mark it stale, and the first observation after that
  regroups ``world.robots`` in insertion order (the one builder,
  :meth:`World._rebuild_index`, that the reference engine calls after
  every move).  Rounds that move but observe nothing pay nothing.
* Board dictionaries are recycled on message-free rounds instead of being
  reallocated; a shared immutable empty mapping stands in for decayed
  previous-round boards.
* Actions are dispatched on their **exact class**, most frequent first
  (``Stay``, then ``Move``, then ``Sleep``); nothing subclasses them.
* Termination is an **O(1)** check: the world counts its live honest
  robots instead of scanning them before every round.
* Traces keep **counters only** unless ``keep_trace=True``.

Activation schedulers (see :mod:`repro.sim.schedulers`): a non-default
``scheduler`` decides, per round, which robots get their program resumed.
Robots left inactive keep their public record frozen for the round;
everything else (boards, the round counter, simultaneous movement of the
robots that *did* act) ticks on.  The default (no scheduler) takes the
historical fully synchronous branch untouched, so its behaviour is
byte-identical to the scheduler-free engine.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import ProtocolViolation, SimulationError
from ..graphs.port_labeled import PortLabeledGraph
from .progress import current_sink as _progress_sink
from .schedulers import (
    Scheduler,
    SchedulerSpec,
    SynchronousScheduler,
    build_scheduler,
    scheduler_rng,
)
from .robot import (
    SETTLED,
    Action,
    ByzantineAPI,
    Move,
    PublicView,
    Robot,
    RobotAPI,
    Sleep,
    Stay,
)
from .trace import Trace

__all__ = ["World"]

ProgramFactory = Callable[[RobotAPI], Iterator[Action]]

#: Sub-round rank (the paper's "robot of rank Y waits until sub-round Y").
_ORDER_KEY = attrgetter("claimed_id", "true_id")

#: Shared stand-in for a decayed (empty) previous-round board.  Never
#: mutated by the simulator; treat it as read-only from the outside too.
_EMPTY_BOARD: Dict[int, List[Tuple[int, Any]]] = {}


class World:
    """A running simulation instance.

    Parameters
    ----------
    graph:
        The anonymous port-labeled world graph (connected).
    model:
        ``"weak"`` — Byzantine robots cannot fake IDs (Sections 2 & 3);
        ``"strong"`` — they can (Section 4).
    keep_trace:
        Also store every event object (moves, settles, charges, ...).
        Off by default: records, reports and stores read only the
        per-kind counters, which are kept either way.  Turn it on to
        inspect or compare individual events (engine identity tests).
    scheduler:
        Activation scheduler: ``None`` (the default — fully synchronous,
        the paper's model), a spec string like ``"semi_synchronous(p=0.5)"``,
        a :class:`~repro.sim.schedulers.SchedulerSpec`, or a scheduler
        callable.  See :mod:`repro.sim.schedulers`.
    scheduler_seed:
        Seeds the scheduler's dedicated RNG stream (conventionally the
        adversary seed — activation timing is adversary power).  Unused
        by the synchronous default.
    """

    #: API classes handed to robot programs; subclasses (the reference
    #: engine) swap in seed-faithful variants without touching this class.
    _api_cls = RobotAPI
    _byzantine_api_cls = ByzantineAPI

    def __init__(
        self,
        graph: PortLabeledGraph,
        model: str = "weak",
        keep_trace: bool = False,
        scheduler: Union[None, str, SchedulerSpec, Scheduler] = None,
        scheduler_seed: int = 0,
    ):
        if model not in ("weak", "strong"):
            raise SimulationError(f"unknown Byzantine model {model!r}")
        self.graph = graph
        self.model = model
        self.robots: Dict[int, Robot] = {}
        self.round = 0
        #: Total program resumptions so far: one per robot per round in
        #: which it was awake (and, under a scheduler, activated).  A
        #: sleeping robot is skipped before the count, so this is not
        #: live-robot-rounds.
        self.activations = 0
        if scheduler is not None:
            built = build_scheduler(scheduler)
            # A synchronous spec collapses to the scheduler-free fast
            # path: same branch, same bytes, zero per-round overhead.
            scheduler = None if isinstance(built, SynchronousScheduler) else built
        self._scheduler = scheduler
        self._scheduler_rng = (
            scheduler_rng(scheduler_seed) if scheduler is not None else None
        )
        self.charged: List[Tuple[str, int]] = []
        self.board_current: Dict[int, List[Tuple[int, Any]]] = {}
        self.board_previous: Dict[int, List[Tuple[int, Any]]] = {}
        self.trace = Trace(keep_events=keep_trace)
        #: ``node -> robots there`` in insertion order; ``None`` while
        #: stale (after a move, teleport or addition).  Read it through
        #: :meth:`_node_index`, which rebuilds a stale index.
        self._by_node: Optional[Dict[int, List[Robot]]] = {}
        self._order: List[Robot] = []
        self._order_dirty = True
        self._in_step = False
        #: Honest robots whose program has not returned yet; kept by
        #: ``add_robot`` and ``step`` so ``all_honest_done`` is O(1).
        self._honest_live = 0

    # ------------------------------------------------------------------ #
    # Population management
    # ------------------------------------------------------------------ #

    def add_robot(
        self,
        true_id: int,
        node: int,
        program_factory: ProgramFactory,
        byzantine: bool = False,
    ) -> Robot:
        """Create a robot and bind its program.

        ``program_factory`` receives the robot's API (a
        :class:`ByzantineAPI` iff ``byzantine``) and must return a
        generator yielding one action per round.
        """
        if true_id in self.robots:
            raise SimulationError(f"duplicate robot ID {true_id}")
        if not (0 <= node < self.graph.n):
            raise SimulationError(f"node {node} out of range")
        robot = Robot(true_id=true_id, node=node, program=iter(()), byzantine=byzantine)
        api = (self._byzantine_api_cls if byzantine else self._api_cls)(self, robot)
        robot.program = program_factory(api)
        self.robots[true_id] = robot
        self._by_node = None
        self._order_dirty = True
        if not byzantine:
            self._honest_live += 1
        return robot

    @property
    def honest_ids(self) -> List[int]:
        """True IDs of non-Byzantine robots, ascending."""
        return sorted(i for i, r in self.robots.items() if not r.byzantine)

    @property
    def byzantine_ids(self) -> List[int]:
        """True IDs of Byzantine robots, ascending."""
        return sorted(i for i, r in self.robots.items() if r.byzantine)

    def robots_at(self, node: int) -> Tuple[Robot, ...]:
        """Robots currently located at ``node`` (stable within a round).

        Returns an immutable tuple: the underlying index must never be
        mutated by callers.
        """
        return tuple(self._node_index().get(node) or ())

    # ------------------------------------------------------------------ #
    # Round-start snapshot (lazy)
    # ------------------------------------------------------------------ #

    @property
    def round_start_snapshot(self) -> Dict[int, Tuple[int, PublicView]]:
        """``true_id -> (node, PublicView)`` as of the start of the
        current round.

        Built on demand: within a round, positions are unchanged since the
        round began (movement is simultaneous at round end) and records
        resolve through each robot's copy-on-write ``start_view``.
        """
        rnd = self.round
        return {
            rid: (r.node, r._start_view() if r.start_view_round == rnd else r.view())
            for rid, r in self.robots.items()
        }

    # ------------------------------------------------------------------ #
    # Round execution
    # ------------------------------------------------------------------ #

    def step(self, limit: Optional[int] = None) -> None:
        """Execute one synchronous round (sub-rounds + simultaneous moves).

        ``limit`` caps the sleep fast-forward: the round counter never
        jumps past it (:meth:`run` passes its deadline).
        """
        rnd = self.round
        ports = self.graph._ports  # package-internal: skip method dispatch
        trace = self.trace
        keep_events = trace.keep_events
        if self.board_current:  # posts made outside a round are discarded
            self.board_current = {}
        if self._order_dirty:
            self._order = sorted(
                (r for r in self.robots.values() if not r.terminated),
                key=_ORDER_KEY,
            )
            self._order_dirty = False
        order = self._order

        # Activation scheduling: ``None`` (synchronous, or a scheduler
        # answering "everyone") keeps the historical loop byte-identical;
        # otherwise only robots in ``active`` get their program resumed.
        # The scheduler sees the full live roster every round — draws and
        # fairness clocks must not depend on program-internal sleep state.
        scheduler = self._scheduler
        active = (
            None if scheduler is None else scheduler(rnd, order, self._scheduler_rng)
        )

        movers: List[Tuple[Robot, int]] = []
        append_mover = movers.append
        # Fast-forward bookkeeping, tracked in-loop so no extra pass over
        # the population is needed at round end: ``ff_blocked`` means some
        # live robot is guaranteed awake next round; ``ff_min`` is the
        # earliest wake round among dormant robots (-1 = none yet).
        ff_blocked = False
        ff_min = -1
        activations = 0
        self._in_step = True
        try:
            for robot in order:
                su = robot.sleep_until
                if su > rnd:  # dormant this round
                    if ff_min < 0 or su < ff_min:
                        ff_min = su
                    continue
                if active is not None and robot.true_id not in active:
                    # Not activated this round: record frozen, program
                    # un-resumed.  It may run next round, so the sleep
                    # fast-forward must never jump over it.
                    ff_blocked = True
                    continue
                activations += 1
                try:
                    action = next(robot.program)
                except StopIteration:
                    robot.terminated = True
                    self._order_dirty = True
                    if not robot.byzantine:
                        self._honest_live -= 1
                    continue
                # Exact-class dispatch, most frequent action first.
                cls = type(action)
                if cls is Stay:
                    ff_blocked = True
                elif cls is Move:
                    if not robot.byzantine and robot.settled_node is not None:
                        raise ProtocolViolation(
                            f"settled honest robot {robot.true_id} attempted to move"
                        )
                    deg = len(ports[robot.node])
                    port = action.port
                    if not (1 <= port <= deg):
                        raise SimulationError(
                            f"robot {robot.true_id} used invalid port {port} "
                            f"at a degree-{deg} node"
                        )
                    append_mover((robot, port))
                    ff_blocked = True
                elif cls is Sleep:
                    rounds = action.rounds
                    if rounds < 1:
                        raise SimulationError("Sleep must cover at least 1 round")
                    su = rnd + rounds
                    robot.sleep_until = su
                    if ff_min < 0 or su < ff_min:
                        ff_min = su
                else:
                    raise SimulationError(
                        f"robot {robot.true_id} yielded {action!r}; expected Move or Stay"
                    )
        finally:
            self._in_step = False
            self.activations += activations

        # Task (ii): simultaneous movement.  The node index goes stale;
        # the next observation rebuilds it.
        if movers:
            if not keep_events:
                trace.counters["move"] += len(movers)
            for robot, port in movers:
                src = robot.node
                dest, in_port = ports[src][port - 1]  # port validated above
                if keep_events:
                    trace.record(
                        rnd, "move", robot=robot.true_id, src=src, dst=dest, port=port
                    )
                robot.node = dest
                robot.arrival_port = in_port
                robot.moves_made += 1
            self._by_node = None

        # Board decay: this round's board becomes readable for one more
        # round; on message-free rounds the empty dict is recycled.
        board = self.board_current
        if board:
            self.board_previous = board
            self.board_current = {}
        elif self.board_previous:
            self.board_previous = _EMPTY_BOARD

        self.round = nxt = rnd + 1

        # Fast-forward: if every live robot is dormant, jump to the first
        # round anyone wakes (or to ``limit``) in one step.  Equivalent to
        # stepping (dormant robots observe nothing and boards decay to
        # empty after a round).  Only while an honest robot is live: once
        # the last one terminates, ``run`` stops at the next round, and a
        # jump would overshoot it.  Never under a scheduler: skipped
        # rounds would skip its RNG draws and fairness/outage clocks,
        # changing activation semantics.
        if (
            scheduler is None
            and not ff_blocked
            and ff_min > nxt + 1
            and self._honest_live > 0
        ):
            if limit is not None and ff_min > limit:
                ff_min = limit
            if ff_min > nxt + 1:
                self.round = ff_min
                self.board_previous = _EMPTY_BOARD

        # Progress observation (read-only; see repro.sim.progress): a
        # sink installed on this thread sees every completed round.  The
        # uninstalled fast path is one thread-local probe.
        sink = _progress_sink()
        if sink is not None:
            sink(self, rnd)

    def run(
        self,
        max_rounds: int,
        until: Optional[Callable[["World"], bool]] = None,
    ) -> bool:
        """Step until all honest robots terminated (or ``until`` fires).

        Returns True if the stop condition was met within ``max_rounds``,
        False if the budget ran out first (callers decide whether that is
        a failure; it usually is).  ``max_rounds`` bounds the simulated
        round counter, not loop iterations: sleep fast-forwarding can
        advance many rounds per step, but never past the deadline.
        """
        deadline = self.round + max_rounds
        done = self.all_honest_done if until is None else partial(until, self)
        while self.round < deadline:
            if done():
                return True
            self.step(deadline)
        return done()

    def all_honest_done(self) -> bool:
        """True iff every honest robot's program has terminated."""
        return self._honest_live == 0

    # ------------------------------------------------------------------ #
    # Oracle-phase support (charged rounds, simulator-side placement)
    # ------------------------------------------------------------------ #

    def charge(self, label: str, rounds: int) -> None:
        """Account ``rounds`` of a phase priced via cited prior work."""
        if rounds < 0:
            raise SimulationError("cannot charge negative rounds")
        self.charged.append((label, rounds))
        self.trace.record(self.round, "charge", label=label, rounds=rounds)

    @property
    def charged_rounds(self) -> int:
        """Total charged (non-simulated) rounds so far."""
        return sum(r for _, r in self.charged)

    @property
    def total_rounds(self) -> int:
        """Simulated + charged rounds — the number benchmarks report."""
        return self.round + self.charged_rounds

    def teleport(self, true_id: int, node: int) -> None:
        """Simulator-side relocation (enacting an oracle phase outcome)."""
        robot = self.robots[true_id]
        self.trace.record(self.round, "teleport", robot=true_id, src=robot.node, dst=node)
        robot.node = node
        robot.arrival_port = None
        self._by_node = None

    # ------------------------------------------------------------------ #
    # Messaging internals (used by RobotAPI)
    # ------------------------------------------------------------------ #

    def post_message(self, node: int, claimed_sender: int, payload: Any) -> None:
        """Append a message to the current round's board at ``node``."""
        self.board_current.setdefault(node, []).append((claimed_sender, payload))

    # ------------------------------------------------------------------ #
    # Inspection helpers
    # ------------------------------------------------------------------ #

    def honest_settled_positions(self) -> Dict[int, Optional[int]]:
        """``true_id -> settled node`` (``None`` = never settled)."""
        return {
            rid: r.settled_node
            for rid, r in self.robots.items()
            if not r.byzantine
        }

    def positions(self) -> Dict[int, int]:
        """Current ``true_id -> node`` for every robot."""
        return {rid: r.node for rid, r in self.robots.items()}

    def _node_index(self) -> Dict[int, List[Robot]]:
        """The ``node -> robots`` index, rebuilt first if stale.

        Valid for the rest of the round: positions change only at round
        end (movement is simultaneous) and by ``teleport`` between
        rounds, and both mark the index stale.
        """
        index = self._by_node
        if index is None:
            index = self._rebuild_index()
        return index

    def _rebuild_index(self) -> Dict[int, List[Robot]]:
        """Group ``world.robots`` by node, in insertion order.

        The one index builder: :class:`World` calls it on the first read
        after a move, the reference engine after every move.
        """
        index: Dict[int, List[Robot]] = {}
        for r in self.robots.values():
            lst = index.get(r.node)
            if lst is None:
                index[r.node] = [r]
            else:
                lst.append(r)
        self._by_node = index
        return index
