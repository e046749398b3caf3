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
⌊n/3−1⌋ (Thm 4), O(√n) (Thm 5, we enforce ``f ≤ ⌊√n⌋``), each computed
by one function here that the solver's check and ``TABLE1`` both call.

Theorems 6–7 (:mod:`repro.core.strong_byzantine`) share the outline
too, so all six drivers run one body, :func:`_gathered_solver`.  Its
``"two_groups_strong"`` scheme (Section 4's two half groups with
distinct-ID quorums) also selects the strong model and rank dispersion
as phase 3.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterator, Optional, Tuple

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
from ..sim.report import RunReport
from ..sim.robot import Action, RobotAPI
from ._setup import Population, build_population, round_budget, run_population
from .dispersion_using_map import dispersion_rounds_bound, dispersion_using_map
from .phases import pairing_phase, pairing_phase_rounds, rank_dispersion_phase, roster_phase

__all__ = [
    "solve_theorem2",
    "solve_theorem3",
    "solve_theorem4",
    "solve_theorem5",
    "tick_budget_for",
]

#: The map phase starts after the 2-round roster phase.
_BASE = 2
#: Theorems 6–7's group scheme.
STRONG_SCHEME = "two_groups_strong"


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


def _gathered_program(
    api: RobotAPI, scheme: str, tick_budget: int, memo: ExplorerMemo, schedule: str
) -> Iterator[Action]:
    """One honest robot of Theorems 2–7: roster, then map, then disperse."""
    out: Dict = {}
    yield from roster_phase(api, out)
    if scheme == "pairing":
        yield from pairing_phase(api, out, tick_budget, _BASE, memo, schedule)
    else:
        plan = build_group_plan(out["roster"], scheme, _BASE, tick_budget, api.n)
        yield from group_phase_program(api, plan, out, memo)
    m = out["map"]
    if m is None:
        api.log("no_map_agreed")
        return
    if scheme == STRONG_SCHEME:
        yield from rank_dispersion_phase(api, m, 0, out["roster"])
    else:
        yield from dispersion_using_map(api, m, 0)


def _gathered_solver(
    graph: PortLabeledGraph,
    f: int,
    adversary: Optional[Adversary],
    gather_node: int,
    seed: int,
    byz_placement: str,
    scheme: str,
    theorem: int,
    charge: Optional[Callable[[Population], Tuple[str, int]]] = None,
    schedule: str = "paper",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Common body of Theorems 2–7: every robot starts at ``gather_node``.

    ``scheme`` picks the map phase: ``"pairing"`` (the tournament under
    ``schedule``) or a :func:`~repro.mapping.group_mapping.build_group_plan`
    scheme.  ``charge(pop) -> (label, rounds)`` prices an arbitrary-start
    row's gathering from the population this run uses.
    """
    n = graph.n
    pop = build_population(
        graph, f, start=gather_node, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    pre_charges = [charge(pop)] if charge is not None else []
    memo = ExplorerMemo()
    tb = tick_budget_for(graph, gather_node, memo)
    meta = {"theorem": theorem, "tick_budget": tb, "gather_node": gather_node}
    if scheme == "pairing":
        map_rounds = pairing_phase_rounds(n, tb, schedule)
        meta["schedule"] = schedule
    else:
        map_rounds = group_plan_rounds(scheme, tb)
    strong = scheme == STRONG_SCHEME
    # Rank dispersion walks at most n - 1 edges.
    final_rounds = n if strong else dispersion_rounds_bound(n)

    def program(api: RobotAPI) -> Iterator[Action]:
        return _gathered_program(api, scheme, tb, memo, schedule)

    try:
        return run_population(
            graph, pop, lambda rid, node: program,
            round_budget(_BASE + map_rounds + final_rounds + 16, max_rounds),
            model="strong" if strong else "weak", pre_charges=pre_charges,
            scheduler=scheduler, **meta,
        )
    finally:
        memo.clear()


def half_f_max(graph: PortLabeledGraph) -> int:
    """Theorems 2–3's tolerance ``⌊n/2−1⌋``."""
    return max(0, graph.n // 2 - 1)


def third_f_max(graph: PortLabeledGraph) -> int:
    """Theorem 4's tolerance ``⌊n/3−1⌋``."""
    return max(0, graph.n // 3 - 1)


def sqrt_f_max(graph: PortLabeledGraph) -> int:
    """Theorem 5's ``O(√n)`` tolerance: ``min(⌊√n⌋, ⌈⌊n/2⌋/2⌉ − 1)``
    (see :func:`solve_theorem5`)."""
    group = graph.n // 2
    return max(0, min(int(math.isqrt(graph.n)), (group + 1) // 2 - 1))


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
    _check_common(graph, f, half_f_max(graph), "Theorem 3")
    return _gathered_solver(
        graph, f, adversary, gather_node, seed, byz_placement, "pairing", theorem=3,
        schedule=schedule, max_rounds=max_rounds, scheduler=scheduler,
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
    _check_common(graph, f, half_f_max(graph), "Theorem 2")
    # The charge needs |Λgood| over the run's actually-honest IDs, which
    # the adversary's seed and placement decide.
    return _gathered_solver(
        graph, f, adversary, canonical_gather_node(graph), seed, byz_placement,
        "pairing", theorem=2,
        charge=lambda pop: ("gathering_dpp_weak", weak_gathering_rounds(graph, pop.honest_ids)),
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
    _check_common(graph, f, third_f_max(graph), "Theorem 4")
    return _gathered_solver(
        graph, f, adversary, gather_node, seed, byz_placement, "three_groups", theorem=4,
        max_rounds=max_rounds, scheduler=scheduler,
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
    _check_common(
        graph, f, sqrt_f_max(graph), "Theorem 5 (f = O(sqrt n) with half-group majorities)"
    )
    return _gathered_solver(
        graph, f, adversary, canonical_gather_node(graph), seed, byz_placement,
        "two_groups_majority", theorem=5,
        charge=lambda pop: ("gathering_hirose", hirose_gathering_rounds(graph, pop.ids, f)),
        max_rounds=max_rounds, scheduler=scheduler,
    )


def _check_common(graph: PortLabeledGraph, f: int, f_max: int, label: str) -> None:
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    if graph.n < 3:
        raise ConfigurationError(f"{label} needs n >= 3")
    if not (0 <= f <= f_max):
        raise ConfigurationError(f"{label} tolerates 0 <= f <= {f_max}, got f={f}")
