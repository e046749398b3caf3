"""Randomized scatter baseline (no maps, no guarantees).

Each unsettled robot: settle if the current node shows no settled robot
and it is the smallest-ID unsettled robot present; otherwise take a
uniformly random edge.  Terminates with probability 1 for honest-only
populations (a lazy-random-walk coupon argument), in expectation within
``O(n·m·log n)`` rounds — but offers *nothing* against Byzantine robots:
a squatter claiming ``Settled`` vetoes a node forever, and there is no
blacklist to catch it (``tests/test_baselines.py`` pins that denial).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..graphs.exploration import _log2_ceil
from ..graphs.port_labeled import PortLabeledGraph
from ..sim.report import RunReport, finish_report
from ..sim.robot import MOVES, SETTLED, STAY, RobotAPI
from ..sim.world import World
from ..core._setup import build_population

__all__ = ["solve_random_baseline", "random_rounds_budget"]


def random_rounds_budget(graph: PortLabeledGraph) -> int:
    """Round budget: a few multiples of the expected cover-style bound."""
    n, m = graph.n, max(graph.m, 1)
    return 32 * n * m * _log2_ceil(n) + 128


def _program(api: RobotAPI, rng: np.random.Generator):
    while True:
        snapshot = api.colocated_at_round_start()
        any_settled = any(v.state == SETTLED for v in snapshot)
        live = api.colocated()
        any_settled = any_settled or any(v.state == SETTLED for v in live)
        unsettled_smaller = [
            v.claimed_id
            for v in live
            if v.state != SETTLED and v.claimed_id < api.id
        ]
        if not any_settled and not unsettled_smaller:
            api.settle()
            return
        deg = api.degree()
        if deg == 0:
            yield STAY
        else:
            yield MOVES[int(rng.integers(1, deg + 1))]


def solve_random_baseline(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    start: Union[str, int, Dict[int, int]] = "arbitrary",
    seed: int = 0,
    byz_placement: str = "lowest",
) -> RunReport:
    """Run the randomized scatter baseline (budgeted; may fail by timeout)."""
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    pop = build_population(
        graph, f, start=start, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    world = World(graph, model="weak")
    byz = set(pop.byz_ids)
    for rid in pop.ids:
        node = pop.placement[rid]
        if rid in byz:
            world.add_robot(rid, node, pop.adversary.program_factory(rid), byzantine=True)
        else:
            rng = np.random.default_rng((seed, rid, 0xA11))

            def factory(api: RobotAPI, _rng=rng):
                return _program(api, _rng)

            world.add_robot(rid, node, factory, byzantine=False)
    world.run(max_rounds=random_rounds_budget(graph))
    return finish_report(
        world,
        algorithm="random_baseline",
        f=f,
        n=graph.n,
        strategy=pop.adversary.describe(),
        byz_ids=pop.byz_ids,
    )
