"""Prior-work baseline: Byzantine dispersion on rings (Molla et al. [34, 36]).

The paper generalises the ring algorithm ``Time-Opt-Ring-Dispersion``: on
a ring, a robot that knows ``n`` effectively *has* a map for free (the
cycle with the canonical clockwise/counter-clockwise port labeling), so
no Find-Map or token protocol is needed and Dispersion-Using-Map runs
directly in O(n) rounds while tolerating up to ``n − 1`` weak Byzantine
robots.  This module realises exactly that reduction — it is both the
prior-work baseline for benchmarks (the paper's Section 1: "previous work
solved this problem for rings") and a living demonstration of the
paper's observation that map knowledge, however obtained, is the whole
game (Section 1.3).

Restricted to the canonical symmetric ring labeling (port 1 = clockwise
everywhere); on scrambled labelings the free-map trick is unsound and the
general algorithms apply instead.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..graphs.generators import ring
from ..sim.report import RunReport, finish_report
from ..sim.robot import RobotAPI
from ..sim.world import World
from ._shared import check_canonical_ring
from ..core._setup import build_population
from ..core.dispersion_using_map import dispersion_rounds_bound, dispersion_using_map

__all__ = ["solve_ring_dispersion"]


def solve_ring_dispersion(
    n: int,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    start: Union[str, int, Dict[int, int]] = "arbitrary",
    seed: int = 0,
    byz_placement: str = "lowest",
) -> RunReport:
    """Ring Byzantine dispersion: ``n`` robots, ``f ≤ n − 1`` weak Byzantine.

    Each honest robot uses the canonical ring as its private map, rooted
    at its own start node (sound because the symmetric ring is
    vertex-transitive: the rooted map is isomorphic to the world from any
    node).  O(n) rounds — the prior work's time-optimal shape.
    """
    if n < 3:
        raise ConfigurationError("ring dispersion needs n >= 3")
    if not (0 <= f <= n - 1):
        raise ConfigurationError(f"ring dispersion tolerates 0 <= f <= n-1, got {f}")
    graph = ring(n)
    check_canonical_ring(graph)
    pop = build_population(
        graph, f, start=start, adversary=adversary,
        byz_placement=byz_placement, seed=seed,
    )
    world = World(graph, model="weak")
    byz = set(pop.byz_ids)
    map_graph = ring(n)  # the free map
    for rid in pop.ids:
        node = pop.placement[rid]
        if rid in byz:
            world.add_robot(rid, node, pop.adversary.program_factory(rid), byzantine=True)
        else:
            def factory(api: RobotAPI):
                return dispersion_using_map(api, map_graph, 0)

            world.add_robot(rid, node, factory, byzantine=False)
    world.run(max_rounds=dispersion_rounds_bound(n) + 4)
    return finish_report(
        world,
        algorithm="ring_prior_work",
        f=f,
        n=n,
        strategy=pop.adversary.describe(),
        byz_ids=pop.byz_ids,
    )
