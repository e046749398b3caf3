"""Exploration with a movable token — map construction (paper Sections 3–4).

The paper repeatedly invokes the Dieudonné–Pelc–Peleg [24] primitive: an
*agent* and a *movable token* start co-located and cooperate so the agent
constructs a port-preserving isomorphic map of the anonymous graph.  This
module implements a concrete such protocol:

**Frontier-edge testing.**  The agent maintains a partial map (every node
identified by how it was discovered).  To explore an unknown port
``(u, p)`` it escorts the token to ``u``, crosses together to the unknown
endpoint ``x``, leaves the token at ``x`` and, for every known map node
``v`` that could equal ``x`` (same degree, entry port ``q`` unexplored),
walks alone to ``v`` and checks whether the token is there.  A quorum of
token-group robots at ``v`` proves ``real(v) == real(x)``; exhausting all
candidates proves ``x`` is new.  Both outcomes add one verified edge, so
when no unexplored port remains the map is exact.

Roles can be single robots (the Section 3.1 pairing) or *groups* acting
as one super-robot (Sections 3.2/3.3/4): commands to the token are only
believed with ``cmd_threshold`` distinct agent-group IDs behind them, and
token presence requires ``presence_threshold`` distinct token-group IDs —
the paper's believe-thresholds, which Byzantine minorities cannot forge.

Timing: the protocol advances in **ticks of two rounds** (command round:
agents post ``("cmd", tag, tick, port)``; move round: everyone moves), so
commands reach every token member regardless of sub-round order.  Every
run occupies a fixed slot of rounds (the paper's footnote 11: robots stop
at the budget and return to the start node), with the tick budget set by
an exact dry run of the deterministic explorer
(:func:`plan_honest_run`) — see "What is simulated and what is charged"
in EXPERIMENTS.md for why this only changes idle time, never behaviour.

**One explorer per solve (:class:`ExplorerMemo`).**  A solve runs the
same deterministic explorer once per pairing run, in both role orders,
or once per group member.  :class:`ExplorerMemo` is a trie of
:func:`explorer_core`'s outcomes, keyed by ``(n, root_degree)`` and then
by each response; the solver's dry run records the honest path into it
and every honest agent walks it, replaying recorded ops and running a
private core only where its history leaves the trie.  This is exact:

* the core never sees the graph — only ``n``, the root degree and the
  agent's *own* responses — so two agents with equal histories compute
  equal ops, and a replayed op is the op the agent's own core would
  have yielded;
* no information passes between robots: the trie caches a pure
  function of the agent's own observations, the same function every
  agent would evaluate itself;
* agents that reach the same end share one map object, which is safe
  because :class:`PortLabeledGraph` is immutable and its consumers
  (:func:`~repro.mapping.map_merge.majority_map` and
  :func:`~repro.graphs.isomorphism.canonical_form`) only read it.

The engine, robot actions and activations never see the memo, so
records stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..errors import GraphStructureError, MapError
from ..graphs.port_labeled import PortLabeledGraph
from ..sim.robot import STAY, Action, Move, RobotAPI, Sleep

__all__ = [
    "RunSpec",
    "ExplorerMemo",
    "explorer_core",
    "plan_honest_run",
    "agent_program",
    "token_program",
    "run_slot_rounds",
    "sleep_until",
]


# --------------------------------------------------------------------- #
# Run scheduling
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunSpec:
    """Parameters of one mapping run (shared knowledge of all participants).

    Attributes
    ----------
    tag:
        Unique hashable label of the run (scopes all messages).
    start_round:
        Absolute round at which the run's tick 0 command round happens.
    tick_budget:
        Active ticks before everyone aborts and returns (footnote 11).
    agent_ids / token_ids:
        Role rosters (true IDs in the weak model; in the strong model the
        membership test applies to *claimed* IDs, with distinct-ID dedup).
    cmd_threshold:
        Distinct agent-group IDs required for the token to obey a command.
    presence_threshold:
        Distinct token-group IDs required for the agent to accept that the
        token is present at a node.
    exchange:
        Whether the run ends with a 2-round map broadcast (group modes).
    """

    tag: Tuple
    start_round: int
    tick_budget: int
    agent_ids: FrozenSet[int]
    token_ids: FrozenSet[int]
    cmd_threshold: int = 1
    presence_threshold: int = 1
    exchange: bool = False

    @property
    def active_rounds(self) -> int:
        return 2 * self.tick_budget

    @property
    def return_rounds(self) -> int:
        # Token/agent trails are bounded by one move per tick, +2 margin.
        return self.tick_budget + 2

    @property
    def end_round(self) -> int:
        """First round after the run's slot (including any exchange)."""
        extra = 2 if self.exchange else 0
        return self.start_round + self.active_rounds + self.return_rounds + extra

    @property
    def exchange_round(self) -> int:
        """Round in which agents post their maps (group modes)."""
        return self.start_round + self.active_rounds + self.return_rounds


def run_slot_rounds(tick_budget: int, exchange: bool = False) -> int:
    """Total rounds one mapping run occupies for a given tick budget."""
    return 2 * tick_budget + (tick_budget + 2) + (2 if exchange else 0)


def sleep_until(api: RobotAPI, target_round: int) -> Iterator[Action]:
    """Yield a single Sleep (or nothing) so the robot wakes at ``target_round``."""
    delta = target_round - api.round
    if delta > 0:
        yield Sleep(delta)


# --------------------------------------------------------------------- #
# The explorer core (driver-agnostic deterministic algorithm)
# --------------------------------------------------------------------- #


class _MapOverflow(MapError):
    """Raised by the core when the map would exceed ``n`` nodes — proof of
    Byzantine interference (robots know ``n``), so the run aborts."""


def _navigate_partial(
    edges: Dict[int, Dict[int, Tuple[int, int]]], src: int, dst: int
) -> List[int]:
    """BFS port path on the explored part of the map (deterministic)."""
    if src == dst:
        return []
    parent: Dict[int, Tuple[int, int]] = {}
    queue = [src]
    seen = {src}
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        qi += 1
        for p in sorted(edges[u]):
            v, _ = edges[u][p]
            if v in seen:
                continue
            seen.add(v)
            parent[v] = (u, p)
            if v == dst:
                ports: List[int] = []
                node = dst
                while node != src:
                    prev, port = parent[node]
                    ports.append(port)
                    node = prev
                ports.reverse()
                return ports
            queue.append(v)
    raise MapError(f"partial map: {src} cannot reach {dst}")


def explorer_core(n: int, root_degree: int):
    """The deterministic frontier-testing explorer, as an op coroutine.

    Yields operations and receives observations via ``send``:

    * ``("move", self_port, token_port)`` — execute one tick; ``self_port``
      moves the agent (0 = stay put), ``token_port`` commands the token
      (0 = no command).  Responds ``(degree_after_move, arrival_port)``
      for the agent.
    * ``("check",)`` — is the token present here?  Responds ``bool``
      (costs no tick; it is a pure observation).

    Returns (``StopIteration.value``) the completed
    :class:`PortLabeledGraph` map with the start node labeled 0.  Raises
    :class:`_MapOverflow` if discoveries exceed ``n`` nodes.

    The driver (simulator wrapper or dry-run planner) owns the tick budget;
    the core is budget-oblivious and purely deterministic, which is what
    keeps every honest group member in lockstep.
    """
    edges: Dict[int, Dict[int, Tuple[int, int]]] = {0: {}}
    degree: Dict[int, int] = {0: root_degree}
    pos = 0

    def unexplored_at(u: int) -> Optional[int]:
        for p in range(1, degree[u] + 1):
            if p not in edges[u]:
                return p
        return None

    def next_target() -> Optional[int]:
        # Prefer the current node; else the nearest map node (BFS over the
        # explored map, deterministic tie-break by discovery id).
        if unexplored_at(pos) is not None:
            return pos
        queue = [pos]
        seen = {pos}
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for p in sorted(edges[u]):
                v, _ = edges[u][p]
                if v in seen:
                    continue
                seen.add(v)
                if unexplored_at(v) is not None:
                    return v
                queue.append(v)
        return None

    while True:
        target = next_target()
        if target is None:
            break
        if target != pos:
            for port in _navigate_partial(edges, pos, target):
                yield ("move", port, port)  # escort token along
            pos = target
        p = unexplored_at(pos)
        u = pos
        deg_x, q = yield ("move", p, p)  # cross the frontier edge together
        # Candidates: same degree, entry port q free — and never u itself
        # (the world graph is simple, so x != u; without this exclusion a
        # Byzantine-stalled token at u would "prove" a self-loop).
        candidates = sorted(
            v
            for v in edges
            if v != u and degree[v] == deg_x and 1 <= q <= degree[v] and q not in edges[v]
        )
        found: Optional[int] = None
        for v in candidates:
            # Walk alone: x --q--> u, then map path u -> v; token stays at x.
            yield ("move", q, 0)
            for port in _navigate_partial(edges, u, v):
                yield ("move", port, 0)
            present = yield ("check",)
            if present:
                found = v
                break
            for port in _navigate_partial(edges, v, u):
                yield ("move", port, 0)
            yield ("move", p, 0)  # back out to x
        if found is not None:
            edges[u][p] = (found, q)
            edges[found][q] = (u, p)
            pos = found  # the agent stands at v == x, token alongside
        else:
            nid = len(edges)
            if nid >= n:
                raise _MapOverflow(
                    f"map grew past n={n} nodes — Byzantine-corrupted run"
                )
            edges[nid] = {}
            degree[nid] = deg_x
            edges[u][p] = (nid, q)
            edges[nid][q] = (u, p)
            pos = nid
    # Map complete: escort the token home to the root.
    for port in _navigate_partial(edges, pos, 0):
        yield ("move", port, port)
    table = {
        u: {p: edges[u][p] for p in range(1, degree[u] + 1)} for u in edges
    }
    try:
        return PortLabeledGraph(table)
    except GraphStructureError as exc:
        # Only reachable when Byzantine interference produced an
        # inconsistent edge set (e.g. phantom parallel edges): abort the
        # run exactly like a size overflow.
        raise _MapOverflow(f"inconsistent map from corrupted run: {exc}") from exc


class _Node:
    """One explorer state in an :class:`ExplorerMemo` trie.

    ``op`` is the op the core yielded on reaching this state; at an end it
    is ``None`` and ``end`` holds ``(exception type, args)`` — a
    ``StopIteration`` carrying the map, or a :class:`_MapOverflow`.
    ``children`` maps the next response to the next state.
    """

    __slots__ = ("op", "end", "children")

    def __init__(self, op: Optional[Tuple], end: Optional[Tuple] = None):
        self.op = op
        self.end = end
        self.children: Dict[object, "_Node"] = {}


class _Cursor:
    """One agent's walk through an :class:`ExplorerMemo`, with the
    generator ``send`` contract of :func:`explorer_core`.

    Recorded children are followed without running the core.  On a miss
    the cursor builds a private core, replays its own responses into it
    and records the new child; it keeps that core while it keeps
    extending the trie and drops it on the next hit.
    """

    __slots__ = ("_n", "_root_degree", "_node", "_history", "_core")

    def __init__(self, n: int, root_degree: int, root: _Node):
        self._n = n
        self._root_degree = root_degree
        self._node = root
        self._history: List[object] = []
        self._core = None

    def send(self, response):
        node = self._node.children.get(response)
        if node is None:
            node = self._extend(response)
        else:
            self._core = None
        self._node = node
        self._history.append(response)
        if node.op is not None:
            return node.op
        kind, args = node.end
        raise kind(*args)

    def _extend(self, response) -> _Node:
        core = self._core
        if core is None:
            core = explorer_core(self._n, self._root_degree)
            for past in self._history:
                core.send(past)
        self._core = None  # any exception below ends the core
        try:
            node = _Node(core.send(response))
        except StopIteration as stop:
            node = _Node(None, (StopIteration, (stop.value,)))
        except _MapOverflow as exc:
            node = _Node(None, (_MapOverflow, exc.args))
        else:
            self._core = core
        self._node.children[response] = node
        return node


class ExplorerMemo:
    """Per-solve trie of :func:`explorer_core` outcomes (module docstring).

    :meth:`explorer` returns a cursor that behaves like
    ``explorer_core(n, root_degree)``: the same op tuples from ``send``,
    ``StopIteration(value=map)`` when the map is complete and
    :class:`_MapOverflow` on overflow.  Any other exception from the core
    propagates and is not recorded.  A solver creates one memo, hands it
    to its dry run and every honest agent, and calls :meth:`clear` when
    the run is over.
    """

    __slots__ = ("_roots",)

    def __init__(self) -> None:
        self._roots: Dict[Tuple[int, int], _Node] = {}

    def explorer(self, n: int, root_degree: int) -> _Cursor:
        root = self._roots.get((n, root_degree))
        if root is None:
            root = self._roots[(n, root_degree)] = _Node(None)
        return _Cursor(n, root_degree, root)

    def clear(self) -> None:
        """Drop the trie (the world's reference cycles may outlive the run)."""
        self._roots.clear()


def plan_honest_run(
    graph: PortLabeledGraph, root: int, memo: ExplorerMemo
) -> Tuple[int, PortLabeledGraph]:
    """Dry-run the explorer against the true graph: exact honest tick count.

    Drives :func:`explorer_core` (through ``memo``, which thereby records
    the honest path) with truthful observations and counts ticks.
    Drivers use the returned count (plus margin) as the fixed run slot
    budget — the protocol-external scheduling constant the paper sets via
    its ``T2 = O(n³)`` bound (EXPERIMENTS.md, "What is simulated and what
    is charged").  Also returns the map the honest run produces, which
    tests verify is isomorphic to ``graph``.
    """
    core = memo.explorer(graph.n, graph.degree(root))
    agent = token = root
    ticks = 0
    resp = None
    try:
        while True:
            op = core.send(resp)
            if op[0] == "move":
                _, self_port, token_port = op
                ticks += 1
                arrival = None
                if self_port:
                    agent, arrival = graph.traverse_fast(agent, self_port)
                if token_port:
                    token, _ = graph.traverse_fast(token, token_port)
                resp = (graph.degree(agent), arrival)
            elif op[0] == "check":
                resp = agent == token
            else:  # pragma: no cover - defensive
                raise MapError(f"unknown op {op!r}")
    except StopIteration as stop:
        return ticks, stop.value


# --------------------------------------------------------------------- #
# Simulator-side role programs
# --------------------------------------------------------------------- #


def _count_distinct(views, member_ids: FrozenSet[int]) -> int:
    """Distinct claimed member IDs among the views (strong-model dedup)."""
    return len({v.claimed_id for v in views if v.claimed_id in member_ids})


def agent_program(
    api: RobotAPI,
    run: RunSpec,
    out: Dict,
    memo: ExplorerMemo,
) -> Iterator[Action]:
    """One honest agent(-group member) executing run ``run``.

    Writes the constructed map (or ``None`` on abort) into
    ``out[run.tag]`` before the run slot ends; always back at the start
    node (via its reverse trail if aborted) by ``run.end_round`` minus the
    exchange rounds.  The caller is responsible for being at the start
    node at ``run.start_round`` (asserted by construction of the phases).
    The explorer runs through the solve's ``memo``.
    """
    yield from sleep_until(api, run.start_round)
    # The run's fields, read once rather than every tick.
    tag = run.tag
    tick_budget = run.tick_budget
    token_ids = run.token_ids
    presence_threshold = run.presence_threshold
    core = memo.explorer(api.n, api.degree())
    trail: List[int] = []
    tick = 0
    result: Optional[PortLabeledGraph] = None
    completed = False
    try:
        op = core.send(None)
        while True:
            if op[0] == "check":
                present = _count_distinct(api.colocated(), token_ids) >= presence_threshold
                op = core.send(present)
                continue
            _, self_port, token_port = op
            if tick >= tick_budget:
                break  # budget exhausted: abort (footnote 11)
            # Command round.
            if token_port:
                api.say(("cmd", tag, tick, token_port))
            yield STAY
            # Move round.
            if self_port:
                if self_port > api.degree():
                    break  # map/world mismatch: Byzantine-corrupted run
                yield Move(self_port)
                arrival = api.arrival_port
                trail.append(arrival)
            else:
                yield STAY
                arrival = api.arrival_port
            tick += 1
            op = core.send((api.degree(), arrival))
    except StopIteration as stop:
        result = stop.value
        completed = True
    except _MapOverflow:
        result = None
    out[run.tag] = result if completed else None
    if not completed:
        # Return home by reversing the recorded arrival-port trail.
        for port in reversed(trail):
            yield Move(port)
    # Sleep out the remainder of active+return phases.
    yield from sleep_until(api, run.exchange_round if run.exchange else run.end_round)
    if run.exchange:
        from ..graphs.isomorphism import canonical_form

        encoding = canonical_form(out[run.tag], 0) if out[run.tag] is not None else None
        api.say(("map", run.tag, encoding))
        yield STAY
        # Read-back round (agents also collect, for uniformity).
        collected = _collect_map(api, run)
        out[("exchanged", run.tag)] = collected
        yield STAY
    yield from sleep_until(api, run.end_round)


def token_program(
    api: RobotAPI,
    run: RunSpec,
    out: Dict,
) -> Iterator[Action]:
    """One honest token(-group member) executing run ``run``.

    Obeys quorum-backed commands during the active phase, then replays its
    reverse trail home.  In exchange mode, collects the map the agent
    group broadcasts into ``out[("exchanged", run.tag)]``.
    """
    start = run.start_round
    yield from sleep_until(api, start)
    # The run's fields, read once rather than every round.
    active_end = start + run.active_rounds
    tag = run.tag
    agent_ids = run.agent_ids
    cmd_threshold = run.cmd_threshold
    trail: List[int] = []
    while (rnd := api.round) < active_end:
        rel = rnd - start
        if rel % 2 == 0:
            yield STAY  # command round: listen only
            continue
        tick = rel // 2
        support: Dict[int, set] = {}
        for sender, payload in api.messages_prev():
            if (
                isinstance(payload, tuple)
                and len(payload) == 4
                and payload[0] == "cmd"
                and payload[1] == tag
                and payload[2] == tick
                and sender in agent_ids
            ):
                support.setdefault(payload[3], set()).add(sender)
        best_port = 0
        best = (0, 0)
        for port, backers in support.items():
            key = (len(backers), -port)
            if len(backers) >= cmd_threshold and key > best:
                best = key
                best_port = port
        if best_port and best_port <= api.degree():
            yield Move(best_port)
            trail.append(api.arrival_port)
        else:
            yield STAY
    # Return phase: retrace every move (correct from wherever we stand).
    for port in reversed(trail):
        yield Move(port)
    yield from sleep_until(api, run.exchange_round if run.exchange else run.end_round)
    if run.exchange:
        yield STAY  # agents post in this round
        out[("exchanged", run.tag)] = _collect_map(api, run)
        yield STAY
    yield from sleep_until(api, run.end_round)


def _collect_map(api: RobotAPI, run: RunSpec):
    """Believe the map encoding backed by >= cmd_threshold distinct agents."""
    votes: Dict[object, set] = {}
    for sender, payload in api.messages_prev():
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == "map"
            and payload[1] == run.tag
            and payload[2] is not None
            and sender in run.agent_ids
        ):
            votes.setdefault(payload[2], set()).add(sender)
    best_enc = None
    best = 0
    for enc, backers in votes.items():
        if len(backers) >= run.cmd_threshold and len(backers) > best:
            best = len(backers)
            best_enc = enc
    return best_enc
