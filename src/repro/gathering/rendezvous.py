"""Real (fully simulated) gathering on view-distinguishable graphs.

On graphs where all views are distinct (the Theorem 1 class), gathering
needs no prior-work machinery at all: every robot can privately map the
graph (Find-Map), identify the node with the lexicographically smallest
rooted canonical form — a *view-invariant* property, so all robots pick
the same real node — and simply walk there.  Byzantine robots cannot
interfere (no communication is consumed).

This substrate is a bonus beyond the paper: it upgrades the Theorem 1
algorithm into a *gathering* algorithm on its graph class and lets the
examples demonstrate an arbitrary-start, fully simulated pipeline with
zero oracle charges.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from ..graphs.isomorphism import canonical_form
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.traversal import navigate
from ..sim.robot import MOVES, Action, RobotAPI

__all__ = ["canonical_node_on_map", "rendezvous_walk"]


def canonical_node_on_map(map_graph: PortLabeledGraph) -> int:
    """The map node with lexicographically smallest rooted canonical form.

    Because the canonical form is invariant under port-preserving
    isomorphism, robots holding isomorphic private maps select the *same
    real node* even though their private labels differ.  On
    view-distinguishable graphs the minimum is unique (all forms differ).
    """
    best_node = 0
    best_form = None
    for v in range(map_graph.n):
        form = canonical_form(map_graph, v)
        if best_form is None or form < best_form:
            best_form = form
            best_node = v
    return best_node


def rendezvous_walk(
    api: RobotAPI,
    map_graph: PortLabeledGraph,
    map_pos: int,
) -> Iterator[Action]:
    """Walk from ``map_pos`` to the canonical node; yields one move/round.

    Returns (via StopIteration) after arriving; at most ``n − 1`` rounds.
    Generator-composable into larger programs with ``yield from``.
    """
    target = canonical_node_on_map(map_graph)
    for port in navigate(map_graph, map_pos, target):
        yield MOVES[port]
