"""Theorems 6–7: strong Byzantine robots (paper Section 4).

Strong Byzantine robots fake IDs, so every ID-trusting mechanism of
Sections 2–3 (blacklists, per-ID map votes) is poisoned.  Section 4's
counter-design, implemented here:

* **Quorums instead of identities.**  Two half groups run one mapping run
  with both believe-thresholds at ``⌊n/4⌋`` *distinct claimed IDs*.  Each
  group contains at least ``⌊n/4⌋`` honest robots (``f ≤ ⌊n/4−1⌋``), so
  honest quorums always form and Byzantine ones never do — duplicated IDs
  collapse in the distinct count.
* **Rank dispersion instead of negotiation.**  With a common map and the
  remembered gathered roster, robot ranked ``i`` walks to the ``i``-th
  node of the canonical BFS order and settles.  Honest robots hold
  distinct ranks, so no negotiation — hence nothing to lie in — is needed.

Theorem 6: gathered start, O(n³).  Theorem 7: arbitrary start via the
exponential-round strong gathering of [24] (oracle charge; requires ``f``
to be known, which the driver asserts by taking it as input).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..gathering.oracle import canonical_gather_node, strong_gathering_rounds
from ..graphs.port_labeled import PortLabeledGraph
from ..mapping.group_mapping import build_group_plan, group_phase_program, group_plan_rounds
from ..mapping.token_mapping import ExplorerMemo
from ..sim.report import RunReport
from ..sim.robot import Action, RobotAPI
from ._setup import build_population, round_budget
from .general_graphs import _run_driver, tick_budget_for
from .phases import rank_dispersion_phase, roster_phase

__all__ = ["solve_theorem6", "solve_theorem7"]


def _strong_program(
    api: RobotAPI, tick_budget: int, base: int, memo: ExplorerMemo
) -> Iterator[Action]:
    out: Dict = {}
    yield from roster_phase(api, out)
    plan = build_group_plan(out["roster"], "two_groups_strong", base, tick_budget, api.n)
    yield from group_phase_program(api, plan, out, memo)
    m = out["map"]
    if m is None:
        api.log("no_map_agreed")
        return
    yield from rank_dispersion_phase(api, m, 0, out["roster"])


def _strong_solver(
    graph: PortLabeledGraph,
    f: int,
    adversary: Optional[Adversary],
    gather_node: int,
    seed: int,
    byz_placement: str,
    pre_charges,
    theorem: int,
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
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
            return _strong_program(api, tb, base, memo)

        return factory

    bound = base + group_plan_rounds("two_groups_strong", tb) + n + 16
    try:
        return _run_driver(
            graph, pop, honest_program_factory, "strong", round_budget(bound, max_rounds),
            pre_charges, scheduler=scheduler, theorem=theorem,
            tick_budget=tb, gather_node=gather_node,
        )
    finally:
        memo.clear()


def solve_theorem6(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    gather_node: int = 0,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 6: gathered start, ``f ≤ ⌊n/4−1⌋`` **strong** Byzantine, O(n³)."""
    _check(graph, f)
    return _strong_solver(
        graph, f, adversary, gather_node, seed, byz_placement,
        pre_charges=[], theorem=6, max_rounds=max_rounds, scheduler=scheduler,
    )


def solve_theorem7(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 7: arbitrary start, ``f ≤ ⌊n/4−1⌋`` strong, exponential rounds.

    Phase 0 is [24]'s strong gathering (knowledge of ``f`` required —
    reflected by ``f`` being a driver input), charged exponentially and
    enacted at the canonical gather node; the rest equals Theorem 6.
    """
    _check(graph, f)
    gather = canonical_gather_node(graph)
    charge = strong_gathering_rounds(graph)
    return _strong_solver(
        graph, f, adversary, gather, seed, byz_placement,
        pre_charges=[("gathering_dpp_strong", charge)], theorem=7,
        max_rounds=max_rounds, scheduler=scheduler,
    )


def _check(graph: PortLabeledGraph, f: int) -> None:
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    if graph.n < 4:
        raise ConfigurationError("strong-Byzantine dispersion needs n >= 4")
    f_max = max(graph.n // 4 - 1, 0)
    if not (0 <= f <= f_max):
        raise ConfigurationError(f"Theorems 6/7 tolerate 0 <= f <= {f_max}, got f={f}")
