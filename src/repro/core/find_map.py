"""Procedure **Find-Map** (paper Section 2.1) — quotient-graph maps.

Czyzowicz, Kosowski and Pelc [16] prove a single robot with O(m log n)
memory can construct the *quotient graph* of an anonymous port-labeled
graph in polynomial rounds, with no help from (and no interference
possible by) other robots.  The paper's Theorem 1 runs this procedure
independently on every robot, then requires the graph class where the
quotient graph is isomorphic to the graph itself.

Substitution (EXPERIMENTS.md, "What is simulated and what is charged"):
we compute the quotient graph directly — the provable *output* of the
prior-work protocol — and charge its round cost through
:func:`find_map_rounds`.  Each robot receives a **privately relabeled**
copy rooted at its own position, so no global node names leak: two
robots' maps agree only up to port-preserving isomorphism, exactly as in
the paper.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import ConfigurationError
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.quotient import is_quotient_isomorphic, quotient_graph

__all__ = ["find_map_rounds", "private_quotient_map"]


def find_map_rounds(n: int, m: int) -> int:
    """Charged round cost of Find-Map.

    Lemma 1 states "polynomial in n" without an exponent; we charge
    ``n³·⌈log₂ n⌉`` (documented in EXPERIMENTS.md, "What is simulated
    and what is charged").
    Only the *shape* (a polynomial dominating the O(n) dispersion phase)
    matters for Theorem 1's statement.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    return n**3 * max(1, math.ceil(math.log2(max(n, 2))))


def private_quotient_map(
    graph: PortLabeledGraph,
    node: int,
    rng: np.random.Generator,
) -> Tuple[PortLabeledGraph, int]:
    """The map a robot standing at ``node`` obtains from Find-Map.

    Returns ``(map_graph, map_root)`` where ``map_graph`` is the quotient
    graph under a robot-private random relabeling and ``map_root`` is the
    map node corresponding to the robot's position.

    Requires the Theorem 1 graph class (quotient ≅ graph, i.e. all views
    distinct); raises :class:`ConfigurationError` otherwise, because a
    collapsed quotient cannot serve as a dispersion map (distinct world
    nodes would alias to one map node — the failure Section 2.1 warns
    about).
    """
    if not is_quotient_isomorphic(graph):
        raise ConfigurationError(
            "graph is not isomorphic to its quotient graph; Theorem 1 does not apply"
        )
    q = quotient_graph(graph)
    base = q.to_port_labeled()
    perm = [int(x) for x in rng.permutation(graph.n)]
    private = base.relabel(perm)
    root = perm[q.class_of[node]]
    return private, root
