"""Port-preserving isomorphism and canonical forms for robot maps.

The paper's map-majority steps (Sections 3.1–3.3) require robots to decide
whether two candidate maps "are the same map".  For *rooted* port-labeled
graphs this is easy and exact: a deterministic traversal from the root that
always explores ports in numeric order assigns every node a canonical index
(rooted port-labeled graphs are **rigid**: ports give each node at most one
image under any root-preserving isomorphism).  The resulting encoding is a
complete invariant:

    two rooted maps are port-preserving isomorphic  ⟺  equal encodings.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from .port_labeled import PortLabeledGraph

__all__ = ["canonical_form", "rooted_isomorphic", "find_isomorphism"]

CanonicalForm = Tuple[Tuple[int, int, int, int], ...]


def canonical_form(graph: PortLabeledGraph, root: int) -> CanonicalForm:
    """Canonical encoding of ``graph`` rooted at ``root``.

    BFS from the root, scanning ports in increasing order; nodes get
    canonical indices in discovery order.  The encoding lists, for every
    node in canonical order and every port in order, the tuple
    ``(canon(u), p, canon(v), q)``.

    Because the traversal is fully determined by the port structure, two
    rooted graphs produce equal encodings iff they are isomorphic by an
    isomorphism mapping root to root and preserving all port numbers.
    """
    canon: Dict[int, int] = {root: 0}
    order: List[int] = [root]
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, _ in graph.port_row(u):
            if v not in canon:
                canon[v] = len(canon)
                order.append(v)
                queue.append(v)
    rows: List[Tuple[int, int, int, int]] = []
    for u in order:
        cu = canon[u]
        for p, (v, q) in enumerate(graph.port_row(u), start=1):
            rows.append((cu, p, canon[v], q))
    return tuple(rows)


def rooted_isomorphic(
    g1: PortLabeledGraph, root1: int, g2: PortLabeledGraph, root2: int
) -> bool:
    """Port-preserving isomorphism test with prescribed root images."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return canonical_form(g1, root1) == canonical_form(g2, root2)


def find_isomorphism(
    g1: PortLabeledGraph, root1: int, g2: PortLabeledGraph, root2: int
) -> Optional[Dict[int, int]]:
    """Exhibit the (unique) root-preserving port isomorphism, or ``None``.

    Uniqueness: with ports fixed, the image of the root determines the
    image of every node (follow any port path).  Used by tests to verify
    that maps produced by the token protocol really match the world graph,
    node by node.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    mapping: Dict[int, int] = {root1: root2}
    queue = deque([root1])
    while queue:
        u = queue.popleft()
        w = mapping[u]
        if g1.degree(u) != g2.degree(w):
            return None
        # Degrees were checked equal above, so the rows zip exactly.
        for (v1, q1), (v2, q2) in zip(g1.port_row(u), g2.port_row(w)):
            if q1 != q2:
                return None
            if v1 in mapping:
                if mapping[v1] != v2:
                    return None
            else:
                mapping[v1] = v2
                queue.append(v1)
    # Surjectivity check (connected graphs: mapping covers everything).
    if len(mapping) != g1.n:
        return None
    return mapping
