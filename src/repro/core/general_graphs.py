"""Theorems 2–5: Byzantine dispersion on arbitrary graphs (paper Section 3).

All four algorithms share the three-phase outline — (1) gather, (2) build
a map by exploration-with-movable-token, (3) Dispersion-Using-Map — and
differ in how phases 1–2 are realised:

=====  ========  ==========================  =============================
Thm    start     phase 1 (gathering)         phase 2 (map finding)
=====  ========  ==========================  =============================
2      arbitrary [24] weak oracle charge     pairing tournament (§3.1)
3      gathered  —                           pairing tournament (§3.1)
4      gathered  —                           three groups, 3 runs (§3.2)
5      arbitrary [27] Hirose oracle charge   two half groups, 1 run (§3.3)
=====  ========  ==========================  =============================

Phase 3 is identical everywhere.  Tolerances: ⌊n/2−1⌋ (Thm 2/3),
⌊n/3−1⌋ (Thm 4), O(√n) (Thm 5, we enforce ``f ≤ ⌊√n⌋``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Union

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..gathering.oracle import (
    canonical_gather_node,
    hirose_gathering_rounds,
    weak_gathering_rounds,
)
from ..graphs.port_labeled import PortLabeledGraph
from ..mapping.group_mapping import build_group_plan, group_phase_program, group_plan_rounds
from ..mapping.token_mapping import ExplorerMemo, plan_honest_run
from ..sim.report import RunReport, finish_report
from ..sim.robot import Action, RobotAPI
from ..sim.world import World
from ._setup import (
    Population,
    build_population,
    resolve_scheduler,
    round_budget,
    run_world_guarded,
)
from .dispersion_using_map import dispersion_rounds_bound, dispersion_using_map
from .phases import pairing_phase, pairing_phase_rounds, roster_phase

__all__ = [
    "solve_theorem2",
    "solve_theorem3",
    "solve_theorem4",
    "solve_theorem5",
    "tick_budget_for",
]


def tick_budget_for(
    graph: PortLabeledGraph, gather_node: int, memo: ExplorerMemo, margin: int = 2
) -> int:
    """The fixed per-run tick budget all robots share.

    The paper fixes the slot by the theoretical ``T2 = O(n³)`` bound; we
    fix it by the exact dry run of the deterministic explorer plus a
    margin — a protocol-external scheduling constant either way (see
    "What is simulated and what is charged" in EXPERIMENTS.md).  The dry
    run records the honest path into the solve's ``memo``.
    """
    ticks, _ = plan_honest_run(graph, gather_node, memo)
    return ticks + margin


def _run_driver(
    graph: PortLabeledGraph,
    pop: Population,
    honest_program_factory,
    model: str,
    max_rounds: int,
    pre_charges,
    scheduler=None,
    **meta,
) -> RunReport:
    """Shared world assembly + execution + reporting for Theorems 2–7.

    A non-default activation ``scheduler`` (see
    :mod:`repro.sim.schedulers`) is seeded from the adversary, records
    its canonical spec in the report meta, and runs *guarded*: the
    paper's protocols assume synchrony, so timing-induced protocol
    breakdowns (a robot tripping an invariant because a peer was
    starved) are recorded as violations in a failed report instead of
    crashing the sweep.
    """
    scheduler, canon = resolve_scheduler(scheduler)
    world = World(
        graph, model=model, scheduler=scheduler, scheduler_seed=pop.adversary.seed,
    )
    for label, rounds in pre_charges:
        world.charge(label, rounds)
    byz = set(pop.byz_ids)
    for rid in pop.ids:
        node = pop.placement[rid]
        if rid in byz:
            world.add_robot(rid, node, pop.adversary.program_factory(rid), byzantine=True)
        else:
            world.add_robot(rid, node, honest_program_factory(rid), byzantine=False)
    if scheduler is not None:
        meta["scheduler"] = canon
    extra = run_world_guarded(world, max_rounds, guarded=scheduler is not None)
    return finish_report(
        world,
        extra_violations=extra,
        f=pop.f,
        n=graph.n,
        strategy=pop.adversary.describe(),
        byz_ids=pop.byz_ids,
        **meta,
    )


def _pairing_solver(
    graph: PortLabeledGraph,
    f: int,
    adversary: Optional[Adversary],
    gather_node: int,
    seed: int,
    byz_placement: str,
    pre_charges,
    theorem: int,
    schedule: str = "paper",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Common body of Theorems 2 and 3 (pairing tournament from a gather node)."""
    n = graph.n
    pop = build_population(
        graph, f, start=gather_node, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    memo = ExplorerMemo()
    tb = tick_budget_for(graph, gather_node, memo)
    base = 2  # after the roster phase

    def honest_program_factory(rid: int):
        def factory(api: RobotAPI) -> Iterator[Action]:
            return _pairing_program(api, tb, base, memo, schedule)

        return factory

    bound = (
        base + pairing_phase_rounds(n, tb, schedule) + dispersion_rounds_bound(n) + 16
    )
    try:
        return _run_driver(
            graph, pop, honest_program_factory, "weak", round_budget(bound, max_rounds),
            pre_charges, scheduler=scheduler, theorem=theorem,
            tick_budget=tb, gather_node=gather_node, schedule=schedule,
        )
    finally:
        memo.clear()


def _pairing_program(
    api: RobotAPI, tick_budget: int, base: int, memo: ExplorerMemo, schedule: str = "paper"
) -> Iterator[Action]:
    out: Dict = {}
    yield from roster_phase(api, out)
    yield from pairing_phase(api, out, tick_budget, base, memo, schedule)
    m = out["map"]
    if m is None:
        api.log("no_map_agreed")
        return
    yield from dispersion_using_map(api, m, 0)


def _group_program(
    api: RobotAPI, scheme: str, tick_budget: int, base: int, memo: ExplorerMemo
) -> Iterator[Action]:
    out: Dict = {}
    yield from roster_phase(api, out)
    plan = build_group_plan(out["roster"], scheme, base, tick_budget, api.n)
    yield from group_phase_program(api, plan, out, memo)
    m = out["map"]
    if m is None:
        api.log("no_map_agreed")
        return
    yield from dispersion_using_map(api, m, 0)


def _group_solver(
    graph: PortLabeledGraph,
    f: int,
    adversary: Optional[Adversary],
    gather_node: int,
    seed: int,
    byz_placement: str,
    pre_charges,
    scheme: str,
    theorem: int,
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Common body of Theorems 4 and 5 (group map finding from a gather node)."""
    n = graph.n
    pop = build_population(
        graph, f, start=gather_node, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    memo = ExplorerMemo()
    tb = tick_budget_for(graph, gather_node, memo)
    base = 2

    def honest_program_factory(rid: int):
        def factory(api: RobotAPI) -> Iterator[Action]:
            return _group_program(api, scheme, tb, base, memo)

        return factory

    bound = base + group_plan_rounds(scheme, tb) + dispersion_rounds_bound(n) + 16
    try:
        return _run_driver(
            graph, pop, honest_program_factory, "weak", round_budget(bound, max_rounds),
            pre_charges, scheduler=scheduler, theorem=theorem,
            tick_budget=tb, gather_node=gather_node,
        )
    finally:
        memo.clear()


# --------------------------------------------------------------------- #
# Public drivers
# --------------------------------------------------------------------- #


def solve_theorem3(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    gather_node: int = 0,
    seed: int = 0,
    byz_placement: str = "lowest",
    schedule: str = "paper",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 3: gathered start, ``f ≤ ⌊n/2−1⌋`` weak Byzantine, O(n⁴).

    Fully simulated (no oracle charges): roster discovery, the Section 3.1
    pairing tournament, map majority, Dispersion-Using-Map.

    ``schedule`` selects the tournament schedule: ``"paper"`` (the
    recursive halving of Section 3.1) or ``"round_robin"`` (circle
    method, ~half the slots) — the ablation showing the paper's O(n⁴) is
    schedule-limited, not protocol-limited.
    """
    _check_common(graph, f, graph.n // 2 - 1, "Theorem 3")
    return _pairing_solver(
        graph, f, adversary, gather_node, seed, byz_placement,
        pre_charges=[], theorem=3, schedule=schedule, max_rounds=max_rounds,
        scheduler=scheduler,
    )


def solve_theorem2(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 2: arbitrary start, ``f ≤ ⌊n/2−1⌋`` weak, Õ(n⁹).

    Phase 1 is the [24] gathering, charged at ``4·n⁴·|Λgood|·X(n)`` rounds
    and enacted at the canonical gather node (EXPERIMENTS.md, "What is
    simulated and what is charged"); phases 2–3 equal Theorem 3 and are
    fully simulated.
    """
    _check_common(graph, f, graph.n // 2 - 1, "Theorem 2")
    gather = canonical_gather_node(graph)
    # Honest IDs under the default compact assignment with the f lowest
    # corrupted: the remaining ones.  The charge needs |Λgood| over them.
    # Pass the adversary through: placement is derived from the
    # adversary's seed, so the preview must resolve the same one the
    # solver's population will, or the charged |Λgood| drifts from the
    # actually-honest IDs.
    pop_preview = build_population(
        graph, f, start=gather, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    charge = weak_gathering_rounds(graph, pop_preview.honest_ids)
    return _pairing_solver(
        graph, f, adversary, gather, seed, byz_placement,
        pre_charges=[("gathering_dpp_weak", charge)], theorem=2,
        max_rounds=max_rounds, scheduler=scheduler,
    )


def solve_theorem4(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    gather_node: int = 0,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 4: gathered start, ``f ≤ ⌊n/3−1⌋`` weak Byzantine, O(n³).

    Three groups by sorted ID; three mapping runs with rotating roles and
    the ⌊k/6⌋+1 / ⌊k/3⌋+1 believe-thresholds; majority of the three maps;
    Dispersion-Using-Map.  Fully simulated.
    """
    _check_common(graph, f, graph.n // 3 - 1, "Theorem 4")
    return _group_solver(
        graph, f, adversary, gather_node, seed, byz_placement,
        pre_charges=[], scheme="three_groups", theorem=4, max_rounds=max_rounds,
        scheduler=scheduler,
    )


def solve_theorem5(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 5: arbitrary start, ``f ≤ ⌊√n⌋`` weak, Õ(n⁵·√n).

    Phase 1 is the Hirose et al. [27] gathering, charged at
    ``(f + |Λall|)·X(n)``; phase 2 splits the roster into two half groups
    for a single mapping run with in-group majorities; phase 3 as usual.

    Tolerance: the paper's ``f = O(√n)`` hides the constant required for
    the half-group majorities to survive all ``f`` faults landing in one
    group: ``f ≤ ⌈⌊n/2⌋/2⌉ − 1``.  Asymptotically ``√n`` binds (n ≥ 25);
    at small ``n`` the group bound binds.  We enforce the minimum of both.
    """
    group = graph.n // 2
    limit = min(int(math.isqrt(graph.n)), (group + 1) // 2 - 1)
    _check_common(graph, f, limit, "Theorem 5 (f = O(sqrt n) with half-group majorities)")
    gather = canonical_gather_node(graph)
    pop_preview = build_population(
        graph, f, start=gather, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    charge = hirose_gathering_rounds(graph, pop_preview.ids, f)
    return _group_solver(
        graph, f, adversary, gather, seed, byz_placement,
        pre_charges=[("gathering_hirose", charge)], scheme="two_groups_majority",
        theorem=5, max_rounds=max_rounds, scheduler=scheduler,
    )


def _check_common(graph: PortLabeledGraph, f: int, f_max: int, label: str) -> None:
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    if graph.n < 3:
        raise ConfigurationError(f"{label} needs n >= 3")
    if not (0 <= f <= max(f_max, 0)):
        raise ConfigurationError(f"{label} tolerates 0 <= f <= {f_max}, got f={f}")
