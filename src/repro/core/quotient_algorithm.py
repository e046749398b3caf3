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
from ..sim.report import RunReport, finish_report
from ..sim.robot import RobotAPI
from ..sim.world import World
from ._setup import build_population, resolve_scheduler, round_budget, run_world_guarded
from .dispersion_using_map import dispersion_rounds_bound, dispersion_using_map
from .find_map import find_map_rounds, private_quotient_map

__all__ = ["solve_theorem1", "theorem1_round_bound"]


def theorem1_round_bound(n: int, m: int) -> int:
    """Total charged+simulated round bound: polynomial Find-Map + O(n)."""
    return find_map_rounds(n, m) + dispersion_rounds_bound(n)


def solve_theorem1(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    start: Union[str, int, Dict[int, int]] = "arbitrary",
    seed: int = 0,
    byz_placement: str = "lowest",
    id_seed: Optional[int] = None,
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
    if not (0 <= f <= graph.n - 1):
        raise ConfigurationError(f"Theorem 1 tolerates 0 <= f <= n-1, got f={f}")

    pop = build_population(
        graph,
        f,
        start=start,
        adversary=adversary,
        byz_placement=byz_placement,
        id_seed=id_seed,
        seed=seed,
    )
    scheduler, canon = resolve_scheduler(scheduler)
    world = World(
        graph, model="weak", scheduler=scheduler, scheduler_seed=pop.adversary.seed,
    )

    # Phase 1 — Find-Map: independent, parallel, interference-free; all
    # robots finish within the same polynomial bound (synchronous start),
    # so the whole phase is charged once, globally.
    world.charge("find_map", find_map_rounds(graph.n, graph.m))

    master = np.random.default_rng(seed)
    for rid in pop.ids:
        node = pop.placement[rid]
        if rid in set(pop.byz_ids):
            world.add_robot(rid, node, pop.adversary.program_factory(rid), byzantine=True)
        else:
            map_rng = np.random.default_rng((seed, rid, 0xD15))
            map_graph, map_root = private_quotient_map(graph, node, map_rng)

            def factory(api: RobotAPI, _m=map_graph, _r=map_root):
                return dispersion_using_map(api, _m, _r)

            world.add_robot(rid, node, factory, byzantine=False)

    # Phase 2 — Dispersion-Using-Map: O(n) simulated rounds (+ slack for
    # beyond-tolerance experiments to fail visibly rather than hang).
    budget = round_budget(dispersion_rounds_bound(graph.n) + 4, max_rounds)
    meta = {} if scheduler is None else {"scheduler": canon}
    extra = run_world_guarded(world, budget, guarded=scheduler is not None)
    return finish_report(
        world,
        extra_violations=extra,
        theorem=1,
        f=f,
        n=graph.n,
        strategy=pop.adversary.describe(),
        byz_ids=pop.byz_ids,
        **meta,
    )
