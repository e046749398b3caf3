"""Byzantine dispersion with ``k ≤ n`` robots (Section 5's setting, solvable side).

The paper's primary setting has exactly ``n`` robots; Section 5 studies
general ``k`` and proves impossibility when ``⌈k/n⌉ > ⌈(k−f)/n⌉``.  On
the *solvable* side of that line — in particular any ``k ≤ n`` — the
paper's machinery applies unchanged: Dispersion-Using-Map's pigeonhole
argument (Lemma 4) only needs the robot count to not exceed ``n``.

This driver runs the Theorem 1 pipeline with ``k`` robots: private
quotient-graph maps (so it inherits Theorem 1's graph-class restriction
and its full ``f ≤ k − 1`` tolerance).  It rounds out the library for the
``k < n`` regime most prior dispersion work ([29] and friends) studies,
and gives the impossibility experiments their solvable-side control.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.quotient import is_quotient_isomorphic
from ..sim.report import RunReport
from ._setup import build_population
from .quotient_algorithm import _private_map_solver

__all__ = ["solve_k_robots"]


def solve_k_robots(
    graph: PortLabeledGraph,
    k: int,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    start: Union[str, int, Dict[int, int]] = "arbitrary",
    seed: int = 0,
    byz_placement: str = "lowest",
) -> RunReport:
    """Disperse ``k ≤ n`` robots, up to ``f ≤ k − 1`` of them weak Byzantine.

    Same structure and guarantees as :func:`~repro.core.solve_theorem1`;
    requires the quotient-isomorphic graph class.  For ``k > n`` see
    :func:`~repro.core.demonstrate_impossibility` (the regime is
    unsolvable once ``⌈k/n⌉ > ⌈(k−f)/n⌉``) and the capacity DFS baseline.
    """
    n = graph.n
    if not (1 <= k <= n):
        raise ConfigurationError(
            f"solve_k_robots handles 1 <= k <= n; got k={k}, n={n}"
        )
    if not (0 <= f <= k - 1):
        raise ConfigurationError(f"tolerates 0 <= f <= k-1, got f={f}")
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    if not is_quotient_isomorphic(graph):
        raise ConfigurationError(
            "requires the quotient graph to be isomorphic to the graph (Theorem 1 class)"
        )
    pop = build_population(
        graph, f, start=start, adversary=adversary, n_robots=k,
        byz_placement=byz_placement, seed=seed,
    )
    return _private_map_solver(graph, pop, seed, algorithm="k_robots", k=k)
