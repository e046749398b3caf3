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

from typing import Iterator

from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.traversal import navigate
from ..sim.robot import MOVES, Action, RobotAPI
from .oracle import canonical_gather_node

__all__ = ["rendezvous_walk"]


def rendezvous_walk(
    api: RobotAPI,
    map_graph: PortLabeledGraph,
    map_pos: int,
) -> Iterator[Action]:
    """Walk from ``map_pos`` to the canonical node; yields one move/round.

    The target is :func:`~repro.gathering.oracle.canonical_gather_node`
    of the private map: the canonical form is invariant under
    port-preserving isomorphism, so robots holding isomorphic maps pick
    the *same real node* although their private labels differ (on
    view-distinguishable graphs the minimum is unique).  Returns (via
    StopIteration) after arriving; at most ``n − 1`` rounds.
    Generator-composable into larger programs with ``yield from``.
    """
    target = canonical_gather_node(map_graph)
    for port in navigate(map_graph, map_pos, target):
        yield MOVES[port]
