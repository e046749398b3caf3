"""Theorem 1: Byzantine dispersion tolerating up to ``n − 1`` Byzantine
robots on graphs isomorphic to their quotient graphs.

The algorithm (paper Section 2): every robot independently runs
**Find-Map** (polynomial rounds, immune to interference — no communication
involved) and then **Dispersion-Using-Map** (O(n) rounds).  Because maps
are obtained without trusting anyone, *any* number of Byzantine robots
``f ≤ n − 1`` is tolerated — the strongest tolerance in Table 1 (row 1),
paid for by the restricted graph class.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.quotient import is_quotient_isomorphic
from ..sim.report import RunReport
from ._setup import Population, build_population, round_budget, run_population
from .dispersion_using_map import dispersion_rounds_bound, dispersion_using_map
from .find_map import find_map_rounds, private_quotient_map

__all__ = ["solve_theorem1", "theorem1_round_bound"]


def theorem1_round_bound(n: int, m: int) -> int:
    """Total charged+simulated round bound: polynomial Find-Map + O(n)."""
    return find_map_rounds(n, m) + dispersion_rounds_bound(n)


def theorem1_f_max(graph: PortLabeledGraph) -> int:
    """Theorem 1's tolerance ``n − 1``: maps are found without trusting anyone."""
    return graph.n - 1


def solve_theorem1(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    start: Union[str, int, Dict[int, int]] = "arbitrary",
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Run the Theorem 1 algorithm end to end.

    Parameters mirror the model: ``graph`` must be in the Theorem 1 class
    (checked), ``f`` of the ``n`` robots are Byzantine (weak model),
    ``start`` is any placement — Theorem 1 needs no gathering.
    ``max_rounds`` caps the *simulated* phase below the solver's own
    bound (a scenario round budget); a too-small budget reports
    ``success=False`` instead of raising.  ``scheduler`` selects a
    non-default activation model (:mod:`repro.sim.schedulers`); timing-
    induced protocol breakdowns under it are recorded as violations.

    Returns a :class:`~repro.sim.report.RunReport`; ``rounds_charged``
    carries the Find-Map polynomial, ``rounds_simulated`` the O(n)
    dispersion phase.
    """
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    if not is_quotient_isomorphic(graph):
        raise ConfigurationError(
            "Theorem 1 requires the quotient graph to be isomorphic to the graph"
        )
    if not (0 <= f <= theorem1_f_max(graph)):
        raise ConfigurationError(f"Theorem 1 tolerates 0 <= f <= n-1, got f={f}")
    pop = build_population(
        graph, f, start=start, adversary=adversary, byz_placement=byz_placement, seed=seed,
    )
    return _private_map_solver(
        graph, pop, seed, max_rounds=max_rounds, scheduler=scheduler, theorem=1,
    )


def _private_map_solver(
    graph: PortLabeledGraph,
    pop: Population,
    seed: int,
    max_rounds: Optional[int] = None,
    scheduler=None,
    **meta,
) -> RunReport:
    """Common body of Theorem 1 and :func:`~repro.core.solve_k_robots`:
    each honest robot finds its own map, then runs Dispersion-Using-Map."""

    def honest_factory(rid: int, node: int):
        map_rng = np.random.default_rng((seed, rid, 0xD15))
        map_graph, map_root = private_quotient_map(graph, node, map_rng)
        return lambda api: dispersion_using_map(api, map_graph, map_root)

    # Phase 1 — Find-Map: independent, parallel, interference-free; all
    # robots finish within the same polynomial bound (synchronous start),
    # so the whole phase is charged once, globally.
    # Phase 2 — Dispersion-Using-Map: O(n) simulated rounds (+ slack for
    # beyond-tolerance experiments to fail visibly rather than hang).
    return run_population(
        graph, pop, honest_factory,
        round_budget(dispersion_rounds_bound(graph.n) + 4, max_rounds),
        pre_charges=[("find_map", find_map_rounds(graph.n, graph.m))],
        scheduler=scheduler, **meta,
    )
