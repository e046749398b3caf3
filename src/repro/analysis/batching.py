"""Batch grouping for :func:`~repro.analysis.experiments.execute_plan`.

This module decides *which* pending :class:`~repro.analysis.experiments.
SweepCell`\\ s can share one :class:`~repro.sim.batch.BatchWorld` step
loop, and runs each eligible group through the struct-of-arrays engine.
The contract is the one every PR since PR-1 has pinned: **batch-produced
records are byte-identical to the per-cell serial path** — same values,
same key order, same store cell keys — so batching is purely a
throughput optimisation, never a semantics switch.

Grouping rules
--------------
Cells batch together iff they agree on everything the engine shares:
graph fingerprint, solver serial, strategy, scheduler spec, and round
budget.  Only **seed**, **f**, and Byzantine **placement** may vary
within a group — those become per-simulation columns of the batch.

Fallback triggers (cells that stay on the per-cell oracle path):

* singleton groups — batching one simulation is pure overhead;
* cells targeted by an injected :class:`~repro.analysis.faults.
  FaultPlan` — the chaos machinery (retries, quarantine, timeouts) is a
  per-cell contract;
* kinds/solvers that opted out (only Theorem 1's deterministic
  Dispersion-Using-Map is vectorized today; the randomized baseline and
  board-protocol rows keep their per-robot programs);
* non-synchronous schedulers, strategies whose behaviour is not
  position-free deterministic (``ghost_squatter`` moves and draws RNG),
  and placements outside the registry;
* graphs outside the Theorem 1 class (disconnected or not
  quotient-isomorphic) and ``f`` outside ``[0, n-1]`` — the serial path
  owns those rejections so error messages and ``rejected`` records stay
  bit-for-bit.

Any unexpected engine error also falls back: the per-cell path
recomputes the group, and ``execute_plan`` issues a ``RuntimeWarning``
naming the group and the exception, so a fallback is never silent (the
test suite turns that warning into an error).

Records are built by :func:`repro.analysis.experiments._record`, the same
function the per-cell path uses.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..byzantine.adversary import choose_byzantine_ids
from ..core._setup import round_budget
from ..core.dispersion_using_map import dispersion_rounds_bound
from ..core.find_map import find_map_rounds
from ..core.runner import get_row
from ..graphs.quotient import is_quotient_isomorphic
from ..sim.batch import (
    BYZ_CRASH,
    BYZ_FLAG_SPAMMER,
    BYZ_IDLE,
    BYZ_SQUATTER,
    BatchWorld,
    Theorem1BatchProgram,
)
from ..sim.report import RunReport, dispersion_violations
from .experiments import _record, _resolve_payload

__all__ = [
    "batchable",
    "plan_groups",
    "run_batch_group",
]

#: Strategy registry names whose observable behaviour is deterministic
#: and position-free (never move, never consume their RNG stream) —
#: the precondition for replacing per-robot generators with array ops.
SUPPORTED_STRATEGIES: Dict[str, int] = {
    "crash": BYZ_CRASH,
    "idle": BYZ_IDLE,
    "squatter": BYZ_SQUATTER,
    "flag_spammer": BYZ_FLAG_SPAMMER,
}

#: Cell kinds the batch path runs.  ``scaling`` is excluded only because
#: its graphs are all distinct — its groups would always be singletons.
BATCHABLE_KINDS = frozenset({"table1", "tolerance"})

#: Table 1 rows with a vectorized program (row 1: Dispersion-Using-Map).
BATCHABLE_SERIALS = frozenset({1})

SUPPORTED_PLACEMENTS = frozenset({"lowest", "highest", "random"})


def batchable(cell) -> bool:
    """True iff ``cell`` is eligible for the batched engine at all
    (group membership additionally requires ≥2 compatible cells)."""
    return (
        cell.kind in BATCHABLE_KINDS
        and cell.serial in BATCHABLE_SERIALS
        and cell.scheduler == "synchronous"
        and cell.strategy in SUPPORTED_STRATEGIES
        and cell.placement in SUPPORTED_PLACEMENTS
        and (cell.rounds is None or cell.rounds >= 0)
    )


def _group_key(cell, fingerprint) -> Tuple:
    """Everything a batch group must agree on.  The fingerprint is a
    JSON-safe nested list (not hashable), so it is serialized; two cells
    whose payloads fingerprint equal resolve to equal graphs."""
    return (
        cell.kind,
        cell.serial,
        json.dumps(fingerprint, sort_keys=True),
        cell.strategy,
        cell.scheduler,
        cell.rounds,
    )


def plan_groups(
    cells: Sequence,
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
    cells: Sequence,
    indices: Sequence[int],
    finish: Callable[[int, List[Dict]], None],
) -> List[int]:
    """Run one compatible group through the batched engine.

    Calls ``finish(i, records)`` for every simulated cell and returns
    the indices it did *not* run (leftovers for the per-cell path):
    graphs outside the Theorem 1 class, out-of-range ``f`` values (the
    serial path owns rejection records and error messages), and groups
    that shrink below two runnable cells.
    """
    first = cells[indices[0]]
    graph = _resolve_payload(first.payload)
    n = graph.n
    if n < 1 or not graph.is_connected() or not is_quotient_isomorphic(graph):
        return list(indices)
    row = get_row(first.serial)
    runnable: List[Tuple[int, int]] = []  # (cell index, resolved f)
    leftover: List[int] = []
    for i in indices:
        cell = cells[i]
        f_used = row.f_max(graph) if cell.f is None else cell.f
        if 0 <= f_used <= n - 1:
            runnable.append((i, f_used))
        else:
            leftover.append(i)
    if len(runnable) < 2:
        return list(indices)
    _run_theorem1_batch(row, graph, cells, runnable, finish)
    return leftover


def _run_theorem1_batch(
    row,
    graph,
    cells: Sequence,
    runnable: Sequence[Tuple[int, int]],
    finish: Callable[[int, List[Dict]], None],
) -> None:
    """Vectorized Theorem 1 execution for one group, replicating the
    serial oracle's setup draw-for-draw.

    Per simulation, the serial path does exactly this (verified against
    ``solve_theorem1`` / ``build_population`` / ``make_placement``):
    compact ids ``1..n`` (``assign_ids`` with ``seed=None``); Byzantine
    ids via ``choose_byzantine_ids(ids, f, placement, seed=run_seed)``;
    start nodes via one ``default_rng(run_seed).integers(0, n)`` draw
    per robot in id order.  The per-robot program RNG streams
    (``default_rng((seed, rid))`` and the honest map-permutation stream)
    are *never observable* — relabeled private maps replay identical
    port sequences — so skipping them cannot change any record.
    """
    n = graph.n
    n_sims = len(runnable)
    first = cells[runnable[0][0]]
    budget = round_budget(dispersion_rounds_bound(n) + 4, first.rounds)
    fm = find_map_rounds(n, graph.m)
    ids = list(range(1, n + 1))

    world = BatchWorld(graph, n_sims, n)
    byz_kind = np.zeros((n_sims, n), dtype=np.int64)
    byz_ids_of: List[List[int]] = []
    code = SUPPORTED_STRATEGIES[first.strategy]
    for s, (i, f_used) in enumerate(runnable):
        cell = cells[i]
        byz = choose_byzantine_ids(ids, f_used, placement=cell.placement,
                                   seed=cell.seed)
        byz_ids_of.append(byz)
        for rid in byz:
            byz_kind[s, rid - 1] = code
        rng = np.random.default_rng(cell.seed)
        for j in range(n):
            world.pos[s, j] = int(rng.integers(0, n))

    program = Theorem1BatchProgram(world, byz_kind)
    rounds = world.run(program, budget)

    honest = world.honest
    settled_node = world.settled_node
    terminated = world.terminated
    for s, (i, f_used) in enumerate(runnable):
        cell = cells[i]
        settled: Dict[int, Optional[int]] = {}
        for j in range(n):
            if honest[s, j]:
                node = int(settled_node[s, j])
                settled[j + 1] = node if node >= 0 else None
        violations = dispersion_violations(settled, not_done=[
            j + 1
            for j in range(n)
            if honest[s, j] and not terminated[s, j] and settled_node[s, j] < 0
        ])
        report = RunReport(
            success=not violations,
            rounds_simulated=int(rounds[s]),
            rounds_charged=fm,
            settled=settled,
            violations=violations,
            phases=[("find_map", fm)],
            meta=dict(theorem=1, f=f_used, n=n, strategy=cell.strategy,
                      byz_ids=byz_ids_of[s]),
            activations=int(world.activations[s]),
        )
        finish(i, [_record(cell.kind, row, graph, cell.strategy, f_used, report)])
