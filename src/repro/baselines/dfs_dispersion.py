"""Non-Byzantine DFS dispersion baseline (Augustine & Moses Jr. [5] style).

The classic rooted dispersion algorithm: robots move as one group and use
*settled robots as landmarks* that remember a DFS state (parent port +
next child port) and guide later visitors.  No maps, no quotients — and
no Byzantine tolerance whatsoever, which is exactly why it is here: it
disperses ``k ≤ n`` honest robots in ``O(m)`` rounds and then collapses
under a single lying landmark (Byzantine squatter), motivating the
paper's machinery (``tests/test_baselines.py``).

A **capacity** parameter generalises to ``k > n`` robots with up to
``cap`` settlers per node — the substrate for the Theorem 8 impossibility
construction (Section 5's modified dispersion asks ≤ ``⌈(k−f)/n⌉``
honest robots per node).

Protocol (3 rounds per DFS step; gathered start):

1. *arrive* — the travelling group stands at a node; each member posts
   ``("visiting",)``.
2. *guide* — settlers at the node post ``("dfs", direction_port)``; a
   fresh node instead settles its ``cap`` smallest visitors (negotiated
   through public records, smallest IDs first).
3. *move* — remaining visitors follow the guidance port.

Landmark state advances once per visit; when children are exhausted the
guidance is the parent port (backtrack).  Termination: a robot terminates
when it settles, or when guidance backtracks out of the root (k > cap·n
leftovers — only in deliberately overfull experiments).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ..byzantine.adversary import Adversary
from ..core._setup import Population, run_population
from ..errors import ConfigurationError
from ..graphs.port_labeled import PortLabeledGraph
from ..sim.report import RunReport
from ..sim.robot import MOVES, SETTLED, STAY, Action, RobotAPI
from ..sim.world import World
from ..sim.ids import assign_ids

__all__ = ["dfs_dispersion_program", "solve_dfs_baseline", "dfs_rounds_bound"]


def dfs_rounds_bound(n: int, m: int, cap: int = 1) -> int:
    """Safety bound on rounds: 3 per step, ≤ 4m steps, per capacity wave."""
    return 12 * m * max(cap, 1) + 12 * n + 24


def dfs_dispersion_program(api: RobotAPI, cap: int = 1) -> Iterator[Action]:
    """One honest robot of the rooted DFS dispersion (gathered start)."""
    parent_port: Optional[int] = None  # set when this robot settles
    next_child = 1

    while True:
        # --- arrive round: announce the visit ------------------------------
        api.say(("visiting",))
        yield STAY

        # --- guide round ----------------------------------------------------
        snapshot = api.colocated_at_round_start()
        settled_here = [v for v in snapshot if v.state == SETTLED]
        if len(settled_here) < cap:
            # Fresh (or not yet full) node: smallest `cap - settled` visitors
            # settle.  Visitors act in ID order, so counting live settlers
            # again is enough to know whether a slot remains for us.
            live_settled = [v for v in api.colocated() if v.state == SETTLED]
            if len(live_settled) < cap:
                api.settle()
                # Become the landmark (only the first settler guides).
                if not settled_here and not [v for v in live_settled]:
                    parent_port = api.arrival_port
                    yield from _landmark(api, parent_port)
                return
        # Node full: wait for guidance in the next round.
        yield STAY
        direction = _read_guidance(api)
        if direction is None:
            # No guidance (all landmarks silent — Byzantine or root done):
            # terminate unsettled; the validator will flag it.
            api.log("dfs_no_guidance")
            return
        if direction < 1 or direction > api.degree():
            api.log("dfs_bad_guidance", port=direction)
            return
        yield MOVES[direction]


def _landmark(api: RobotAPI, parent_port: Optional[int]) -> Iterator[Action]:
    """Settled landmark: guide visitors forever (program never returns
    until the scheduler stops resuming it — it stays put, so the world
    treats it as settled; we simply keep answering)."""
    next_child = 1
    deg = api.degree()
    while True:
        # Did anyone announce a visit last round?
        visits = [1 for _, p in api.messages_prev() if p == ("visiting",)]
        if visits:
            while next_child <= deg and next_child == parent_port:
                next_child += 1
            if next_child <= deg:
                direction = next_child
                next_child += 1
            else:
                direction = parent_port if parent_port is not None else 0
            api.say(("dfs", direction))
        yield STAY


def _read_guidance(api: RobotAPI) -> Optional[int]:
    """Take the guidance port posted by a (claimed) settled robot; a
    payload whose port is not an ``int`` is skipped, not followed."""
    settled_ids = {v.claimed_id for v in api.colocated() if v.state == SETTLED}
    for sender, payload in api.messages_prev():
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "dfs"
            and type(payload[1]) is int
            and sender in settled_ids
        ):
            return payload[1]
    return None


def solve_dfs_baseline(
    graph: PortLabeledGraph,
    k: Optional[int] = None,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    cap: Optional[int] = None,
    gather_node: int = 0,
    seed: int = 0,
    byz_placement: str = "lowest",
    byz_ids: Optional[List[int]] = None,
) -> RunReport:
    """Run the DFS baseline with ``k`` robots (default ``n``), gathered start.

    ``cap`` defaults to ``⌈k/n⌉`` (exactly one per node when ``k ≤ n``).
    ``byz_ids`` overrides the placement-based choice — the impossibility
    construction needs to corrupt a specific set.
    """
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    n = graph.n
    k = k if k is not None else n
    cap = cap if cap is not None else -(-k // n)  # ceil
    ids = assign_ids(k, n_nodes=n)
    adversary = adversary if adversary is not None else Adversary(seed=seed)
    if byz_ids is None:
        byz_ids = adversary.choose_ids(ids, f, placement=byz_placement)
    pop = Population(ids, sorted(set(byz_ids)), {rid: gather_node for rid in ids}, adversary)
    return run_population(
        graph, pop, lambda rid, node: lambda api: dfs_dispersion_program(api, cap),
        dfs_rounds_bound(n, graph.m, cap),
        until=_all_honest_settled_or_done,
        honest_cap=max(1, -(-(k - pop.f) // n)),  # ⌈(k−f)/n⌉ (Section 5), 1 if k = f
        algorithm="dfs_baseline",
        k=k,
        cap=cap,
    )


def _all_honest_settled_or_done(world: World) -> bool:
    """Stop once every honest robot has settled or terminated.

    Landmark programs run forever (they keep guiding), so the default
    "all programs returned" condition never fires; settling is the real
    completion signal for this baseline.
    """
    return all(
        r.settled_node is not None or r.terminated
        for r in world.robots.values()
        if not r.byzantine
    )
