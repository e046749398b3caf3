"""Traversal utilities robots run on their *private maps*.

Everything here operates on a :class:`PortLabeledGraph` that a robot holds
in memory (its map) — never on the world graph directly.  Robots convert
the outputs (port sequences) into movement actions; the simulator then
validates them against the real graph.

* :func:`euler_tour` — the DFS-tree traversal of Section 2.2
  ("the normal DFS tree traversal takes at most 2n − 1 steps"): a sequence
  of port moves from the root that visits every node and returns to the
  root, each tree edge crossed exactly twice.
* :func:`navigate` — shortest port path between two map nodes (used by the
  token-mapping protocol's candidate checks and by Section 4's rooted
  dispersion).
* :func:`bfs_order` — the deterministic node ordering ``v(1), …, v(n)``
  of Section 4 Phase 2 (canonical BFS discovery order; identical for all
  honest robots because their maps are port-isomorphic with a common
  root).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import MapError, PortError
from .port_labeled import PortLabeledGraph

__all__ = ["TourStep", "euler_tour", "navigate", "bfs_order", "path_nodes"]


@dataclass(frozen=True)
class TourStep:
    """One move of an Euler tour over a DFS tree.

    Attributes
    ----------
    port:
        Port to leave the current node through.
    node:
        Map node reached after the move.
    first_visit:
        True iff this move *discovers* ``node`` (robots only run the
        settle-negotiation of Section 2.2 on first visits; backtracking
        re-entries skip it).
    """

    port: int
    node: int
    first_visit: bool


def euler_tour(graph: PortLabeledGraph, root: int) -> List[TourStep]:
    """DFS-tree Euler tour of the map, starting and ending at ``root``.

    Exactly ``2·(n−1)`` steps for a connected map on ``n`` nodes.  Ports
    are explored in increasing order, making the tour deterministic — all
    honest robots with isomorphic maps and the same start node produce the
    same tour (in map-local coordinates).

    Computed once per graph object and root: the steps are cached on the
    graph, which is exact because the tour is deterministic and safe
    because :class:`PortLabeledGraph` is immutable and ``TourStep`` is
    frozen.  Every call returns a fresh list, so callers may mutate it.
    """
    tours = graph._tour_cache()
    tour = tours.get(root)
    if tour is None:
        tour = tours[root] = tuple(_dfs_tour(graph, root))
    return list(tour)


def _dfs_tour(graph: PortLabeledGraph, root: int) -> List[TourStep]:
    """Compute :func:`euler_tour` (raises :class:`MapError` on a
    disconnected map, which is then not cached)."""
    if graph.n == 0:
        return []
    visited = {root}
    steps: List[TourStep] = []

    # Iterative DFS to dodge recursion limits on large path-like maps.
    stack: List[Tuple[int, int]] = [(root, 1)]
    while stack:
        u, next_port = stack.pop()
        advanced = False
        row = graph.port_row(u)
        for p in range(next_port, len(row) + 1):
            v, q = row[p - 1]
            if v in visited:
                continue
            visited.add(v)
            steps.append(TourStep(port=p, node=v, first_visit=True))
            stack.append((u, p + 1))
            stack.append((v, 1))
            advanced = True
            break
        if not advanced and stack:
            # Backtrack to parent: the parent frame is on the stack; emit the
            # return move (enter parent via the port we came through).
            parent, _ = stack[-1]
            back_port = _port_between(graph, u, parent)
            steps.append(TourStep(port=back_port, node=parent, first_visit=False))
    if not _covers_all(graph, root, visited):
        raise MapError("euler_tour requires a connected map")
    return steps


def _port_between(graph: PortLabeledGraph, u: int, v: int) -> int:
    try:
        return graph.port_to(u, v)
    except PortError:
        raise MapError(f"map has no edge {u} -> {v}") from None


def _covers_all(graph: PortLabeledGraph, root: int, visited: set) -> bool:
    return len(visited) == graph.n


def navigate(graph: PortLabeledGraph, src: int, dst: int) -> List[int]:
    """Shortest path from ``src`` to ``dst`` as a list of ports (BFS).

    Ties are broken by smaller port number, so the path is deterministic —
    honest robots sharing isomorphic maps pick corresponding paths.
    """
    if src == dst:
        return []
    parent: Dict[int, Tuple[int, int]] = {}  # node -> (prev node, port used at prev)
    queue = deque([src])
    seen = {src}
    while queue:
        u = queue.popleft()
        for p, (v, _) in enumerate(graph.port_row(u), start=1):
            if v in seen:
                continue
            seen.add(v)
            parent[v] = (u, p)
            if v == dst:
                ports: List[int] = []
                node = dst
                while node != src:
                    prev, port = parent[node]
                    ports.append(port)
                    node = prev
                ports.reverse()
                return ports
            queue.append(v)
    raise MapError(f"map nodes {src} and {dst} are not connected")


def path_nodes(graph: PortLabeledGraph, src: int, ports: List[int]) -> List[int]:
    """Replay a port sequence on the map; return the node sequence visited."""
    nodes = [src]
    cur = src
    for p in ports:
        cur, _ = graph.traverse(cur, p)
        nodes.append(cur)
    return nodes


def bfs_order(graph: PortLabeledGraph, root: int) -> List[int]:
    """Canonical BFS discovery order of all map nodes from ``root``.

    Section 4 Phase 2: "the robots make a deterministic ordering of the
    nodes of the graph as v(1), …, v(n)".  Port-ordered BFS is such an
    ordering and is preserved by port isomorphisms fixing the root, so all
    honest robots (whose maps share the gathering node as root) order the
    *real* nodes identically even though their private labels differ.
    """
    order = [root]
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v, _ in graph.port_row(u):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    if len(order) != graph.n:
        raise MapError("bfs_order requires a connected map")
    return order
