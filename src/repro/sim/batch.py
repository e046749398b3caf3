"""Batched multi-simulation engine: struct-of-arrays over one CSR graph.

Every sweep this repo runs — Table 1 rows, tolerance sweeps, seed grids —
is dozens-to-thousands of *independent* simulations of the same
(graph, solver) pair that differ only in seed, ``f``, or placement.  The
per-cell path pays Python dispatch per robot per round per cell;
:class:`BatchWorld` amortises it by stepping ``S`` simulations per round
over **one** shared CSR graph, holding robot state in numpy arrays
indexed ``[sim, robot]``, so per-round work is vectorized array ops plus
one Python callback per *batch* instead of per robot.

The engine is deliberately narrower than :class:`~repro.sim.world.World`:
synchronous activation only, weak model (claimed id == true id), no
whiteboards/messages.  Solvers opt in (see
:mod:`repro.analysis.batching`); everything else keeps the per-cell
oracle path, and batch-produced records are pinned byte-identical to it.

Round semantics replicated from the oracle world
------------------------------------------------
* Sub-rounds run in ascending claimed-id order; a robot's mutations
  (flag, public state) are visible **live** to later sub-rounds of the
  same round.
* Moves are simultaneous: positions only change at the end of the round
  (``queue_moves`` writes a shadow array that :meth:`step` commits).
* Terminated robots stay on the board: their public record remains
  visible to co-located robots forever (a crashed Byzantine robot is a
  permanent ``tobeSettled``/flag-0 contender; a settled honest robot a
  permanent ``Settled`` witness).
* ``activations`` counts one resume per live (non-terminated) robot per
  stepped round, exactly the synchronous world's tally.
* A simulation freezes once every honest robot has terminated; its
  ``done_at`` round matches ``World.run``'s ``rounds_simulated``
  accounting (the done-check runs *before* each step).
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.traversal import euler_tour

__all__ = [
    "BatchWorld",
    "Theorem1BatchProgram",
    "BYZ_NONE",
    "BYZ_IDLE",
    "BYZ_CRASH",
    "BYZ_SQUATTER",
    "BYZ_FLAG_SPAMMER",
]


#: Per-robot behaviour codes for :class:`Theorem1BatchProgram`.  These
#: are the strategies whose observable behaviour is deterministic and
#: position-free (never move, never draw from their RNG), which is what
#: makes them vectorizable without a per-robot program object.
BYZ_NONE = 0          # honest: runs Dispersion-Using-Map
BYZ_IDLE = 1          # sit forever claiming tobeSettled, flag 0
BYZ_CRASH = 2         # terminate at the first activation (round 0)
BYZ_SQUATTER = 3      # claim Settled at the start node, then sit forever
BYZ_FLAG_SPAMMER = 4  # raise the intent flag every round, never settle


class BatchWorld:
    """``S`` independent synchronous simulations over one shared graph.

    State lives in ``[n_sims, n_robots]`` numpy arrays; column ``j``
    holds the robot with claimed id ``j + 1`` in every simulation (the
    paper's compact 1..n assignment), so ascending column order **is**
    the world's sub-round order.  A *program* is one callable invoked
    once per round with the world; it reads the round-start snapshots
    (``flag0``/``pub_settled0``), mutates the live arrays in sub-round
    order, and queues moves through :meth:`queue_moves`.
    """

    def __init__(self, graph: PortLabeledGraph, n_sims: int, n_robots: int):
        offsets, dest, _ = graph.csr()
        self.graph = graph
        self.n = graph.n
        self._offsets = np.asarray(offsets, dtype=np.int64)
        self._dest = np.asarray(dest, dtype=np.int64)
        self.n_sims = n_sims
        self.n_robots = n_robots
        shape = (n_sims, n_robots)
        #: current node per robot (stable within a round)
        self.pos = np.zeros(shape, dtype=np.int64)
        #: claimed ids (weak model: the compact true ids 1..n_robots)
        self.claimed = np.tile(
            np.arange(1, n_robots + 1, dtype=np.int64), (n_sims, 1)
        )
        #: live public intent flag / public ``Settled`` claim
        self.flag = np.zeros(shape, dtype=np.int64)
        self.pub_settled = np.zeros(shape, dtype=bool)
        #: node an honest robot actually settled on (-1 = unsettled)
        self.settled_node = np.full(shape, -1, dtype=np.int64)
        self.terminated = np.zeros(shape, dtype=bool)
        self.honest = np.ones(shape, dtype=bool)
        self.round = 0
        #: per-simulation completion (all honest robots terminated)
        self.done = np.zeros(n_sims, dtype=bool)
        self.done_at = np.full(n_sims, -1, dtype=np.int64)
        self.activations = np.zeros(n_sims, dtype=np.int64)
        # round-start snapshots, refreshed by step()
        self.flag0 = self.flag.copy()
        self.pub_settled0 = self.pub_settled.copy()
        self._next_pos = self.pos.copy()

    # -- queries -------------------------------------------------------- #

    def all_honest_terminated(self) -> np.ndarray:
        """``[n_sims]`` mask: every honest robot has terminated."""
        return (self.terminated | ~self.honest).all(axis=1)

    # -- mutation ------------------------------------------------------- #

    def queue_moves(self, sims: np.ndarray, robot: int, ports: np.ndarray) -> None:
        """Queue a simultaneous move through 1-based ``ports`` for
        ``robot`` in the selected ``sims`` (committed at round end, so
        co-location queries stay on round-start positions)."""
        src = self.pos[sims, robot]
        self._next_pos[sims, robot] = self._dest[self._offsets[src] + ports - 1]

    # -- stepping ------------------------------------------------------- #

    def step(self, program: Callable[["BatchWorld"], None]) -> None:
        """Advance every unfinished simulation by one synchronous round."""
        self.flag0 = self.flag.copy()
        self.pub_settled0 = self.pub_settled.copy()
        self._next_pos = self.pos.copy()
        live = ~self.done[:, None] & ~self.terminated
        self.activations += live.sum(axis=1)
        program(self)
        self.pos = self._next_pos
        self.round += 1

    def _refresh_done(self) -> None:
        newly = ~self.done & self.all_honest_terminated()
        self.done_at[newly] = self.round
        self.done |= newly

    def run(self, program: Callable[["BatchWorld"], None], max_rounds: int) -> np.ndarray:
        """Step until every simulation is done or the budget is spent.

        Returns the per-simulation simulated-round counts, matching
        ``World.run``: the round at which the all-honest-terminated check
        first passed, or ``max_rounds`` for budget-exhausted runs.
        """
        while self.round < max_rounds:
            self._refresh_done()
            if self.done.all():
                break
            self.step(program)
        self._refresh_done()
        return np.where(self.done_at >= 0, self.done_at, self.round)


class Theorem1BatchProgram:
    """Vectorized Dispersion-Using-Map (paper Section 2.2) over a batch.

    One instance drives every simulation of a batch group: same graph,
    same strategy; seeds, ``f`` and Byzantine placement vary per sim via
    the ``byz_kind`` matrix (``BYZ_*`` codes, ``[sim, robot]``).

    The world graph **must** be each robot's map up to relabeling — the
    Theorem 1 class guarantees it: every honest robot's private map is
    port-preserving isomorphic to the quotient graph, and
    :func:`~repro.graphs.traversal.euler_tour` is port-driven (ports
    explored in increasing order), so all private relabelings replay the
    identical port sequence from the same start node.  Tours are
    precomputed once per *start node* and shared across sims and robots —
    the amortisation the per-cell path cannot do.

    Byzantine blacklisting (Step 4) never fires under the supported
    strategy codes — recorded (``Settled``-claiming) robots never move —
    so the blacklist is statically empty and elided.
    """

    def __init__(self, world: BatchWorld, byz_kind: np.ndarray):
        self.world = world
        kinds = np.asarray(byz_kind, dtype=np.int64)
        if kinds.shape != (world.n_sims, world.n_robots):
            raise ValueError(
                f"byz_kind shape {kinds.shape} != {(world.n_sims, world.n_robots)}"
            )
        self.byz_kind = kinds
        world.honest[:] = kinds == BYZ_NONE
        #: per-robot progress along its (shared) Euler tour
        self.tour_idx = np.zeros((world.n_sims, world.n_robots), dtype=np.int64)
        self.start_node = world.pos.copy()
        self.tour_len = 2 * (world.n - 1) if world.n > 1 else 0
        self._tour_ports = np.zeros(
            (world.n, max(self.tour_len, 1)), dtype=np.int64
        )
        self._tour_ready = np.zeros(world.n, dtype=bool)

    def _ensure_tours(self, starts: np.ndarray) -> None:
        for c in np.unique(starts):
            c = int(c)
            if not self._tour_ready[c]:
                steps = euler_tour(self.world.graph, c)
                if steps:
                    self._tour_ports[c, : len(steps)] = [s.port for s in steps]
                self._tour_ready[c] = True

    def __call__(self, world: BatchWorld) -> None:
        act_sim = ~world.done
        pos = world.pos
        flag = world.flag
        pub = world.pub_settled
        settled0 = world.pub_settled0
        kinds = self.byz_kind
        round0 = world.round == 0
        for j in range(world.n_robots):
            kj = kinds[:, j]
            # Byzantine sub-round: deterministic public-record effects.
            if round0:
                world.terminated[act_sim & (kj == BYZ_CRASH), j] = True
                pub[act_sim & (kj == BYZ_SQUATTER), j] = True
            flag[act_sim & (kj == BYZ_FLAG_SPAMMER), j] = 1
            # Honest sub-round: Steps 1-3 of Section 2.2, vectorized
            # across simulations (Step 4 elided — see class docstring).
            act = act_sim & world.honest[:, j] & ~world.terminated[:, j]
            if not act.any():
                continue
            flag[act, j] = 0  # api.set_flag(0) at the top of the loop
            here = pos == pos[:, j : j + 1]
            here[:, j] = False
            here &= act[:, None]
            tbs0 = here & ~settled0          # snapshot tobeSettled peers
            settled_present = (here & settled0).any(axis=1)
            smaller_any = tbs0[:, :j].any(axis=1)
            move = act & settled_present     # Step 3c: move on, flag stays 0
            settle = act & ~settled_present & ~smaller_any  # Step 1/2a/3a
            dance = act & ~settled_present & smaller_any    # Step 2b/3b
            if dance.any():
                flag[dance, j] = 1
                # Live flags of snapshot-tbs contenders (any id — a
                # larger id's flag can be carry-over from its last dance).
                flagged = (tbs0 & (flag == 1)).any(axis=1)
                settle |= dance & ~flagged
                observe = dance & flagged
                if observe.any():
                    # Did a smaller contender settle earlier this round?
                    settled_now = (tbs0[:, :j] & pub[:, :j]).any(axis=1)
                    move |= observe & settled_now
                    settle |= observe & ~settled_now
            if settle.any():
                flag[settle, j] = 1
                pub[settle, j] = True
                world.settled_node[settle, j] = pos[settle, j]
                world.terminated[settle, j] = True  # settle + return, same resume
            if move.any():
                move_idx = np.flatnonzero(move)
                ti = self.tour_idx[move_idx, j]
                exhausted = ti >= self.tour_len
                # Tour exhausted without settling: terminate unsettled
                # (the oracle's beyond-tolerance fail-visibly path).
                world.terminated[move_idx[exhausted], j] = True
                go = move_idx[~exhausted]
                if go.size:
                    starts = self.start_node[go, j]
                    self._ensure_tours(starts)
                    ports = self._tour_ports[starts, self.tour_idx[go, j]]
                    world.queue_moves(go, j, ports)
                    self.tour_idx[go, j] += 1
