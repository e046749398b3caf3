"""Views and view-equivalence on anonymous port-labeled graphs.

The *view* of a node ``u`` (Yamashita–Kameda [47]) is the infinite rooted
tree a robot would record by exploring from ``u`` and writing down port
numbers.  Two nodes with equal views are indistinguishable to any
deterministic robot.  The paper's Theorem 1 applies exactly to graphs
where **all views are distinct** (then the quotient graph is isomorphic to
the graph itself).

Computing view equality does not require building infinite trees: the
classes of view-equivalence are the fixpoint of *partition refinement*
(port-labeled 1-WL): start with all nodes in one class and repeatedly
split classes by the multiset of ``(out_port, in_port, neighbour_class)``
triples.  The fixpoint is reached within ``n - 1`` refinement steps
(Norris' bound: views truncated to depth ``n - 1`` decide equality).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .port_labeled import PortLabeledGraph

__all__ = ["view_partition", "truncated_view"]


def view_partition(graph: PortLabeledGraph) -> List[int]:
    """Return ``class_of`` such that ``class_of[u] == class_of[v]`` iff the
    views of ``u`` and ``v`` are equal.

    Classes are numbered ``0..c-1`` in order of their smallest member, so
    the output is deterministic and stable across runs.
    """
    n = graph.n
    if n == 0:
        return []
    # Start from the degree partition (refinement of the trivial one; saves rounds).
    class_of = _canonical([graph.degree(u) for u in range(n)])
    while True:
        signatures: List[Tuple] = []
        for u in range(n):
            sig = [class_of[u]]
            for p, (v, q) in enumerate(graph.port_row(u), start=1):
                sig.append((p, q, class_of[v]))
            signatures.append(tuple(sig))
        new_class = _canonical(signatures)
        if new_class == class_of:
            return class_of
        class_of = new_class


def _canonical(keys: List) -> List[int]:
    """Map arbitrary hashable keys to class ids numbered by first occurrence."""
    ids: Dict = {}
    out: List[int] = []
    for k in keys:
        if k not in ids:
            ids[k] = len(ids)
        out.append(ids[k])
    return out


def truncated_view(graph: PortLabeledGraph, u: int, depth: int) -> Tuple:
    """The depth-``depth`` view of ``u`` as a nested tuple.

    Exponential in ``depth`` — intended for tests on small graphs, where it
    cross-validates :func:`view_partition` (nodes are view-equivalent iff
    their depth ``n-1`` truncated views coincide, Norris 1995).

    Tree encoding: ``(degree, ((p, q, subview), ...))`` where ``p`` is the
    outgoing port at the current node and ``q`` the incoming port at the
    child.
    """
    if depth == 0:
        return (graph.degree(u), ())
    children = []
    for p, (v, q) in enumerate(graph.port_row(u), start=1):
        children.append((p, q, truncated_view(graph, v, depth - 1)))
    return (graph.degree(u), tuple(children))
