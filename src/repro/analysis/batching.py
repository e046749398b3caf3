"""The batched Theorem 1 engine behind
:func:`~repro.analysis.experiments.execute_plan`.

A statistical sweep runs the same graph, solver and adversary dozens to
thousands of times, with only the seed, ``f`` or Byzantine placement
changing.  For Dispersion-Using-Map (Theorem 1, Table 1 row 1; paper
Section 2.2), the one algorithm vectorised here, this module steps a
whole group of such cells together: robot state lives in numpy arrays
indexed ``[sim, robot]`` over the group's one graph, so a round costs a
handful of array operations per robot column instead of one Python
resume per robot per cell.  The contract every PR since PR-1 has pinned:
**batch-produced records are byte-identical to the per-cell serial
path** — same values, same key order, same store cell keys — so
batching is purely a throughput optimisation, never a semantics switch.

Grouping rules
--------------
Cells batch together iff they agree on everything the engine shares:
graph fingerprint, solver serial, strategy, scheduler spec, and round
budget.  Only **seed**, **f**, and Byzantine **placement** may vary
within a group — those become per-simulation rows of the arrays.

Fallback triggers (cells that stay on the per-cell oracle path):

* singleton groups — batching one simulation is pure overhead;
* cells targeted by an injected :class:`~repro.analysis.faults.
  FaultPlan` — the chaos machinery (retries, quarantine, timeouts) is a
  per-cell contract;
* every row but Theorem 1's deterministic Dispersion-Using-Map (the
  randomized baseline and board-protocol rows keep their per-robot
  programs), and ``scaling`` cells, whose graphs are all distinct;
* non-synchronous schedulers, and strategies whose behaviour is not
  position-free deterministic (``ghost_squatter`` moves and draws RNG);
* graphs outside the Theorem 1 class (disconnected or not
  quotient-isomorphic) and ``f`` outside ``[0, n-1]`` — the serial path
  owns those rejections so error messages and ``rejected`` records stay
  bit-for-bit.

Any unexpected engine error also falls back: the per-cell path
recomputes the group, and ``execute_plan`` issues a ``RuntimeWarning``
naming the group and the exception, so a fallback is never silent (the
test suite turns that warning into an error).  A
:class:`~repro.errors.ReproError` — a graph its generator refuses — is
no engine error: it propagates, as it would per cell.

Round semantics replicated from the oracle world
------------------------------------------------
* Column ``j`` holds the robot with id ``j + 1`` in every simulation
  (the compact 1..n ids), and sub-rounds run in ascending id order, so
  column order **is** the world's sub-round order; a robot's mutations
  (flag, public state) are visible **live** to later sub-rounds of the
  same round.
* Moves are simultaneous: positions only change at the end of the
  round, so co-location is always read on round-start positions.
* Terminated robots stay on the board: their public record remains
  visible to co-located robots forever (a crashed Byzantine robot is a
  permanent ``tobeSettled``/flag-0 contender; a settled honest robot a
  permanent ``Settled`` witness).
* A simulation freezes once every honest robot has terminated; its
  round count matches ``World.run``'s ``rounds_simulated`` accounting
  (the done-check runs *before* each step).

Records are built by :func:`repro.analysis.experiments._record`, the same
function the per-cell path uses.  A group hands its records back to the
executor through ``emit`` instead of finishing them: ``execute_plan``
keeps them until the whole group has run and commits them to the store
in one :meth:`~repro.analysis.store.RunStore.put_many`, outside the
fallback boundary, so a store error is never mistaken for an engine
fault.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..byzantine.adversary import choose_byzantine_ids
from ..core._setup import round_budget, uniform_starts
from ..core.dispersion_using_map import dispersion_rounds_bound
from ..core.find_map import find_map_rounds
from ..core.runner import get_row
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.quotient import is_quotient_isomorphic
from ..graphs.traversal import euler_tour
from ..sim.report import RunReport, dispersion_violations
from .experiments import _record

if TYPE_CHECKING:  # repro.scenarios imports this package
    from ..scenarios import Scenario

__all__ = [
    "batchable",
    "plan_groups",
    "run_batch_group",
]

#: The strategies the engine runs, by the code their robots carry in
#: ``kinds`` (0 is an honest robot).  Each is deterministic and
#: position-free — it never moves and never draws from its RNG — so its
#: robots need no program.  A crashed robot stays on the board with its
#: first record, so ``crash`` and ``idle`` robots are the same contender.
_CONTENDER, _SQUATTER, _SPAMMER = 1, 2, 3
_CODES = {"crash": _CONTENDER, "idle": _CONTENDER, "squatter": _SQUATTER,
          "flag_spammer": _SPAMMER}


def batchable(cell: Scenario) -> bool:
    """True iff ``cell`` is eligible for the batched engine at all: a
    synchronous row-1 cell of the table1 or tolerance kind whose
    strategy the engine runs (group membership additionally requires ≥2
    compatible cells).  The ``Scenario`` constructor has already
    validated its placement and round budget."""
    return (
        cell.serial == 1
        and cell.kind in ("table1", "tolerance")
        and cell.scheduler == "synchronous"
        and cell.strategy in _CODES
    )


def _group_key(cell: Scenario, fingerprint) -> Tuple:
    """Everything a batch group must agree on.  The fingerprint is
    hashable as it is; two cells whose graphs fingerprint equal resolve
    to equal graphs."""
    return (
        cell.kind,
        cell.serial,
        fingerprint,
        cell.strategy,
        cell.scheduler,
        cell.rounds,
    )


def plan_groups(
    cells: Sequence[Scenario],
    pending: Sequence[int],
    keys: Sequence[str],
    fingerprint_of: Callable[[int], object],
    faults=None,
) -> Tuple[List[List[int]], List[int]]:
    """Partition pending cell indices into batch groups and a remainder.

    Returns ``(groups, rest)``: each group is ≥2 compatible cell indices
    in plan order; ``rest`` keeps every other pending index in its
    original order (singletons, ineligible cells, and fault-injected
    cells — the fault machinery's retry/quarantine contract is
    per-cell, so targeted cells always take the per-cell path).
    """
    buckets: Dict[Tuple, List[int]] = {}
    order: List[Tuple] = []
    for i in pending:
        cell = cells[i]
        if not batchable(cell):
            continue
        if faults is not None and faults.for_key(keys[i]) is not None:
            continue
        key = _group_key(cell, fingerprint_of(i))
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(i)
    grouped = {i for key in order if len(buckets[key]) > 1 for i in buckets[key]}
    groups = [buckets[key] for key in order if len(buckets[key]) > 1]
    rest = [i for i in pending if i not in grouped]
    return groups, rest


def run_batch_group(
    cells: Sequence[Scenario],
    indices: Sequence[int],
    emit: Callable[[int, List[Dict]], None],
) -> List[int]:
    """Run one compatible group through the batched engine.

    Calls ``emit(i, records)`` for every simulated cell once the whole
    group has run, and returns the indices it did *not* run (leftovers
    for the per-cell path):
    graphs outside the Theorem 1 class, out-of-range ``f`` values (the
    serial path owns rejection records and error messages), and groups
    that shrink below two runnable cells.

    Each simulation's setup replicates the serial oracle's draw for draw
    (``solve_theorem1`` / ``build_population`` / ``make_placement``):
    compact ids ``1..n`` (``assign_ids`` with ``seed=None``); Byzantine
    ids via ``choose_byzantine_ids(ids, f, placement, seed=run_seed)``;
    start nodes via ``uniform_starts(default_rng(run_seed), n, n)``, one
    uniform node per robot in id order.  The per-robot program RNG
    streams (``default_rng((seed, rid))`` and the honest
    map-permutation stream) are *never observable* — relabeled private
    maps replay identical port sequences — so skipping them cannot
    change any record.
    """
    first = cells[indices[0]]
    graph = first.resolved_graph()
    n = graph.n
    if n < 1 or not graph.is_connected() or not is_quotient_isomorphic(graph):
        return list(indices)
    row = get_row(first.serial)
    runnable: List[Tuple[int, int]] = []  # (cell index, resolved f)
    leftover: List[int] = []
    for i in indices:
        cell = cells[i]
        f_used = row.f_max(graph) if cell.f == "max" else cell.f
        if 0 <= f_used <= n - 1:
            runnable.append((i, f_used))
        else:
            leftover.append(i)
    if len(runnable) < 2:
        return list(indices)

    ids = list(range(1, n + 1))
    code = _CODES[first.strategy]
    kinds = np.zeros((len(runnable), n), dtype=np.int64)
    starts = np.empty((len(runnable), n), dtype=np.int64)
    byz_ids_of: List[List[int]] = []
    for s, (i, f_used) in enumerate(runnable):
        cell = cells[i]
        byz = choose_byzantine_ids(ids, f_used, placement=cell.placement,
                                   seed=cell.seed)
        byz_ids_of.append(byz)
        for rid in byz:
            kinds[s, rid - 1] = code
        starts[s] = uniform_starts(np.random.default_rng(cell.seed), n, n)
    budget = round_budget(dispersion_rounds_bound(n) + 4, first.rounds)
    rounds, settled_node, terminated = _simulate(graph, kinds, starts, budget)

    fm = find_map_rounds(n, graph.m)
    for s, (i, f_used) in enumerate(runnable):
        cell = cells[i]
        settled: Dict[int, Optional[int]] = {}
        not_done: List[int] = []
        for j in range(n):
            if kinds[s, j] == 0:
                node = int(settled_node[s, j])
                settled[j + 1] = node if node >= 0 else None
                if node < 0 and not terminated[s, j]:
                    not_done.append(j + 1)
        violations = dispersion_violations(settled, not_done=not_done)
        report = RunReport(
            success=not violations,
            rounds_simulated=int(rounds[s]),
            rounds_charged=fm,
            settled=settled,
            violations=violations,
            phases=[("find_map", fm)],
            meta=dict(theorem=1, f=f_used, n=n, strategy=cell.strategy,
                      byz_ids=byz_ids_of[s]),
        )
        emit(i, [_record(cell.kind, row, graph, cell.strategy, f_used, report)])
    return leftover


def _simulate(
    graph: PortLabeledGraph, kinds: np.ndarray, starts: np.ndarray, budget: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run Dispersion-Using-Map for every row of ``kinds`` (``[sim,
    robot]`` codes of :data:`_CODES`, 0 for an honest robot) from the
    start nodes ``starts`` (same shape) for at most ``budget`` rounds.

    Returns ``(rounds, settled_node, terminated)``: each simulation's
    simulated rounds, the node each honest robot settled on (-1 if
    none), and which honest robots terminated.

    The world graph is each honest robot's map up to relabeling — the
    Theorem 1 class guarantees it: every private map is port-preserving
    isomorphic to the quotient graph, and
    :func:`~repro.graphs.traversal.euler_tour` is port-driven (ports
    explored in increasing order), so all private relabelings replay the
    identical port sequence from the same start node.  A tour is built
    once per *start node*, on first use, and shared by every simulation
    and robot starting there — the amortisation the per-cell path cannot
    do.  Byzantine blacklisting (Step 4) never fires under these
    strategies — a robot that claims ``Settled`` never moves — so it is
    elided.
    """
    offsets, dest, _ = graph.csr()
    offsets = np.asarray(offsets, dtype=np.int64)
    dest = np.asarray(dest, dtype=np.int64)
    shape = kinds.shape
    n = shape[1]
    honest = kinds == 0
    squatter = kinds == _SQUATTER
    spammer = kinds == _SPAMMER
    pos = starts
    flag = np.zeros(shape, dtype=bool)   # live public intent flag
    pub = np.zeros(shape, dtype=bool)    # live public ``Settled`` claim
    settled_node = np.full(shape, -1, dtype=np.int64)
    terminated = np.zeros(shape, dtype=bool)
    tour_idx = np.zeros(shape, dtype=np.int64)  # progress along the tour
    tour_len = 2 * (n - 1)
    tour_ports = np.zeros((n, max(tour_len, 1)), dtype=np.int64)
    tour_ready = np.zeros(n, dtype=bool)
    rounds = np.zeros(shape[0], dtype=np.int64)
    for r in range(budget):
        act_sim = (honest & ~terminated).any(axis=1)
        if not act_sim.any():
            break
        rounds += act_sim
        settled0 = pub.copy()  # round-start snapshot
        unsettled0 = ~settled0
        next_pos = pos.copy()
        for j in range(n):
            if r == 0:
                # The Byzantine robots' one public act, in their first
                # sub-round; a flag spammer's flag then stays raised.
                pub[:, j] = squatter[:, j]
                flag[:, j] = spammer[:, j]
            # Honest sub-round: Steps 1-3 of Section 2.2, vectorized
            # across simulations.
            act = act_sim & honest[:, j] & ~terminated[:, j]
            if not act.any():
                continue
            flag[act, j] = False  # api.set_flag(0) at the top of the loop
            here = pos == pos[:, j : j + 1]
            here[:, j] = False
            tbs0 = here & unsettled0           # snapshot tobeSettled peers
            settled_present = (here & settled0).any(axis=1)
            smaller_any = tbs0[:, :j].any(axis=1)
            move = act & settled_present     # Step 3c: move on, flag stays 0
            free = act & ~settled_present
            settle = free & ~smaller_any     # Step 1/2a/3a
            dance = free & smaller_any       # Step 2b/3b
            if dance.any():
                flag[dance, j] = True
                # Live flags of snapshot-tbs contenders (any id — a
                # larger id's flag can be carry-over from its last dance).
                flagged = (tbs0 & flag).any(axis=1)
                settle |= dance & ~flagged
                observe = dance & flagged
                if observe.any():
                    # Did a smaller contender settle earlier this round?
                    settled_now = (tbs0[:, :j] & pub[:, :j]).any(axis=1)
                    move |= observe & settled_now
                    settle |= observe & ~settled_now
            if settle.any():
                flag[settle, j] = True
                pub[settle, j] = True
                settled_node[settle, j] = pos[settle, j]
                terminated[settle, j] = True  # settle + return, same resume
            if move.any():
                move_idx = np.flatnonzero(move)
                exhausted = tour_idx[move_idx, j] >= tour_len
                # Tour exhausted without settling: terminate unsettled
                # (the oracle's beyond-tolerance fail-visibly path).
                terminated[move_idx[exhausted], j] = True
                go = move_idx[~exhausted]
                if go.size:
                    from_start = starts[go, j]
                    for c in np.unique(from_start):
                        if not tour_ready[c]:
                            steps = euler_tour(graph, int(c))
                            tour_ports[c, : len(steps)] = [s.port for s in steps]
                            tour_ready[c] = True
                    ports = tour_ports[from_start, tour_idx[go, j]]
                    next_pos[go, j] = dest[offsets[pos[go, j]] + ports - 1]
                    tour_idx[go, j] += 1
        pos = next_pos
    return rounds, settled_node, terminated
