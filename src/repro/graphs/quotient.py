"""Quotient graphs of anonymous port-labeled graphs (paper Section 2.1).

Adapted from Czyzowicz, Kosowski, Pelc [16] and Yamashita–Kameda [47]:
the quotient graph ``Q_G`` has one node per view-equivalence class of
``G``; there is an edge between classes ``X`` and ``Y`` with labels ``p``
at ``X`` and ``q`` at ``Y`` whenever some edge ``(x, y)`` of ``G`` with
``x ∈ X, y ∈ Y`` has ports ``p`` at ``x`` and ``q`` at ``y``.  The
quotient graph is in general *not simple* (self-loops and parallel edges
appear whenever symmetry collapses classes), so it gets its own
representation here instead of reusing :class:`PortLabeledGraph`.

The paper's Theorem 1 requires graphs where ``Q_G ≅ G``; since ``Q_G``
always has at most ``n`` nodes and exactly ``n`` only when every class is
a singleton, that condition is equivalent to *all views distinct* — which
:func:`is_quotient_isomorphic` tests directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import GraphStructureError
from .port_labeled import PortLabeledGraph
from .views import view_partition

__all__ = ["QuotientGraph", "quotient_graph", "is_quotient_isomorphic"]


@dataclass(frozen=True)
class QuotientGraph:
    """The quotient graph of a port-labeled graph.

    Attributes
    ----------
    num_classes:
        Number of view-equivalence classes (== number of quotient nodes).
    class_of:
        ``class_of[u]`` is the class of node ``u`` in the original graph.
    port_map:
        ``port_map[X][p] == (Y, q)``: from any node of class ``X``, leaving
        through port ``p`` lands on a node of class ``Y``, entering through
        port ``q``.  Well defined because view-equivalent nodes have
        identical port behaviour (refinement fixpoint).  Self-loops
        (``Y == X``) and parallel class edges are legal here.
    """

    num_classes: int
    class_of: Tuple[int, ...]
    port_map: Tuple[Tuple[Tuple[int, int], ...], ...]

    def degree(self, cls: int) -> int:
        """Degree (number of ports) of quotient node ``cls``."""
        return len(self.port_map[cls])

    def traverse(self, cls: int, port: int) -> Tuple[int, int]:
        """Port traversal in the quotient graph (mirrors the base graph)."""
        row = self.port_map[cls]
        if port < 1 or port > len(row):
            raise GraphStructureError(f"class {cls} has ports 1..{len(row)}, not {port}")
        return row[port - 1]

    def class_sizes(self) -> List[int]:
        """Number of original nodes per class."""
        sizes = [0] * self.num_classes
        for c in self.class_of:
            sizes[c] += 1
        return sizes

    def to_port_labeled(self) -> PortLabeledGraph:
        """Reconstruct a :class:`PortLabeledGraph` when the quotient is simple.

        Only valid when every class is a singleton (``Q_G ≅ G``); raises
        :class:`GraphStructureError` otherwise.  This is exactly the object
        Find-Map hands to robots under Theorem 1's pre-condition.
        """
        if self.num_classes != len(self.class_of):
            raise GraphStructureError(
                "quotient graph has merged classes; it is not isomorphic to the base graph"
            )
        table: Dict[int, Dict[int, Tuple[int, int]]] = {
            c: {p0 + 1: vq for p0, vq in enumerate(row)}
            for c, row in enumerate(self.port_map)
        }
        return PortLabeledGraph(table)


def quotient_graph(graph: PortLabeledGraph) -> QuotientGraph:
    """Compute the quotient graph of ``graph``.

    This is the *output* of the Czyzowicz et al. [16] single-robot map
    construction protocol (our Find-Map substitution — see
    EXPERIMENTS.md, "What is simulated and what is charged"); the round
    cost of actually running that protocol is charged separately by
    :func:`repro.core.find_map.find_map_rounds`.
    """
    class_of = view_partition(graph)
    num_classes = max(class_of) + 1 if class_of else 0
    representative: List[int] = [-1] * num_classes
    for u, c in enumerate(class_of):
        if representative[c] == -1:
            representative[c] = u
    port_map: List[Tuple[Tuple[int, int], ...]] = []
    for c in range(num_classes):
        u = representative[c]
        row: List[Tuple[int, int]] = [
            (class_of[v], q) for v, q in graph.port_row(u)
        ]
        port_map.append(tuple(row))
    return QuotientGraph(
        num_classes=num_classes,
        class_of=tuple(class_of),
        port_map=tuple(port_map),
    )


def is_quotient_isomorphic(graph: PortLabeledGraph) -> bool:
    """True iff ``Q_G ≅ G`` — the precise class of graphs Theorem 1 covers.

    Equivalent to "all nodes have pairwise distinct views".
    """
    part = view_partition(graph)
    return len(set(part)) == graph.n
