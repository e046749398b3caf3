"""Graph families used throughout the paper's setting and our benchmarks.

Every generator returns a connected :class:`~repro.graphs.port_labeled.
PortLabeledGraph`.  Families were chosen to cover the regimes the paper
cares about:

* **ring** — the setting of the prior work [34, 36] this paper extends;
  also the worst case for view-distinguishability (a ring's quotient graph
  has a single node for the canonical port labeling).
* **clique / hypercube / torus** — vertex-transitive families: quotient
  graphs collapse, so Theorem 1 does *not* apply; exercised by tests of
  :func:`repro.graphs.quotient.is_quotient_isomorphic`.
* **random regular / Erdős–Rényi / random tree / lollipop** — asymmetric
  families: almost surely all views are distinct, so Theorem 1 *does*
  apply; these are the Table-1 row-1 workloads.
* **path, star, complete bipartite** — edge cases for traversal code
  (degree-1 nodes, hub nodes).

Construction strategy (see PERFORMANCE.md, "Graph substrate")
-------------------------------------------------------------
The deterministic families are **closed-form**: they emit port rows (or
adjacency lists labeled by :func:`_label`) directly and build the graph
through the trusted ``_from_validated`` path — no networkx objects, no
O(n·Δ) re-validation.  The random families still *sample* with networkx
(one round-trip: sample → adjacency lists → fast labeling) because
reproducing networkx's RNG streams bit-for-bit is not worth owning.
``PortLabeledGraph.from_networkx`` remains the validating oracle path;
tests assert every generator here is ``==`` to its networkx-built
counterpart for fixed seeds.

Every generator is wrapped by :func:`repro.graphs.specs.tagged`: its
outputs carry a :class:`~repro.graphs.specs.GraphSpec` so sweeps can ship
the recipe instead of the graph.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .port_labeled import PortLabeledGraph
from .specs import tagged

__all__ = [
    "ring",
    "path",
    "clique",
    "star",
    "hypercube",
    "torus",
    "random_regular",
    "erdos_renyi",
    "random_tree",
    "lollipop",
    "complete_bipartite",
    "random_connected",
]


def _rng(seed: Optional[int]):
    return None if seed is None else np.random.default_rng(seed)


def _label(adj: Sequence[Sequence[int]], rng=None) -> PortLabeledGraph:
    """Port-label adjacency lists exactly like ``from_networkx`` would.

    ``adj[u]`` holds the neighbours of ``u`` (any order, no duplicates).
    Each node's ports go to its neighbours in sorted order, optionally
    shuffled per node by ``rng`` — consumed in ascending node order, the
    same stream ``from_networkx`` draws, so for a fixed seed the output is
    ``==`` to the old networkx round-trip.  Construction is trusted
    (symmetric and simple by construction): no O(n·Δ) re-validation.
    """
    n = len(adj)
    if rng is not None and not hasattr(rng, "shuffle"):  # pragma: no cover - defensive
        raise TypeError(f"unsupported rng type: {type(rng)!r}")
    shuffle = None if rng is None else rng.shuffle
    ordered: List[List[int]] = []
    for u in range(n):
        nbrs = sorted(adj[u])
        if shuffle is not None:
            shuffle(nbrs)
        ordered.append(nbrs)
    back = [dict(zip(row, range(1, len(row) + 1))) for row in ordered]
    rows = tuple(
        tuple((w, back[w][u]) for w in ordered[u])
        for u in range(n)
    )
    return PortLabeledGraph._from_validated(rows)


def _connected(adj: Sequence[Sequence[int]]) -> bool:
    """BFS connectivity on adjacency lists (no graph object needed)."""
    n = len(adj)
    if n == 0:
        return True
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def _prufer_to_adjacency(prufer: Sequence[int], n: int) -> List[List[int]]:
    """Decode a Prüfer sequence into adjacency lists.

    The labeled tree a Prüfer sequence encodes is unique, so this matches
    ``networkx.from_prufer_sequence`` edge-for-edge without the graph
    object.
    """
    degree = [1] * n
    for x in prufer:
        degree[x] += 1
    adj: List[List[int]] = [[] for _ in range(n)]
    leaves = [u for u in range(n) if degree[u] == 1]
    heapq.heapify(leaves)
    for x in prufer:
        leaf = heapq.heappop(leaves)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    adj[u].append(v)
    adj[v].append(u)
    return adj


@tagged
def ring(n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Cycle on ``n >= 3`` nodes.

    With ``seed=None`` the port labeling is the canonical symmetric one
    (port 1 = clockwise, port 2 = counter-clockwise at every node), making
    the ring vertex-transitive as a port-labeled graph — its quotient graph
    collapses to a single node, the worst case for Theorem 1.  A seeded
    labeling scrambles ports per node, usually breaking the symmetry.
    """
    if n < 3:
        raise ConfigurationError("ring needs n >= 3")
    if seed is not None:
        return _label([((u - 1) % n, (u + 1) % n) for u in range(n)], rng=_rng(seed))
    return PortLabeledGraph._from_validated(
        tuple((((u + 1) % n, 2), ((u - 1) % n, 1)) for u in range(n))
    )


@tagged
def path(n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Path on ``n >= 2`` nodes (degree-1 endpoints)."""
    if n < 2:
        raise ConfigurationError("path needs n >= 2")
    adj = [
        [v for v in (u - 1, u + 1) if 0 <= v < n]
        for u in range(n)
    ]
    return _label(adj, rng=_rng(seed))


@tagged
def clique(n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Complete graph on ``n >= 2`` nodes.

    With ``seed=None`` the labeling is circulant: at node ``u``, port ``p``
    leads to ``(u + p) mod n`` (arriving through port ``n − p``), which is
    vertex-transitive — all views coincide, quotient collapses to one node.
    """
    if n < 2:
        raise ConfigurationError("clique needs n >= 2")
    if seed is not None:
        return _label(
            [[v for v in range(n) if v != u] for u in range(n)], rng=_rng(seed)
        )
    return PortLabeledGraph._from_validated(
        tuple(
            tuple(((u + p) % n, n - p) for p in range(1, n))
            for u in range(n)
        )
    )


@tagged
def star(n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Star: one hub (node 0), ``n - 1`` leaves."""
    if n < 2:
        raise ConfigurationError("star needs n >= 2")
    adj: List[List[int]] = [list(range(1, n))] + [[0] for _ in range(n - 1)]
    return _label(adj, rng=_rng(seed))


@tagged
def hypercube(dim: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Hypercube of dimension ``dim`` (``2**dim`` nodes).

    With ``seed=None``, port ``p`` flips bit ``p − 1`` (dimension-labeled,
    same port on both endpoints) — vertex-transitive, quotient collapses.
    """
    if dim < 1:
        raise ConfigurationError("hypercube needs dim >= 1")
    n = 1 << dim
    if seed is not None:
        adj = [[u ^ (1 << b) for b in range(dim)] for u in range(n)]
        return _label(adj, rng=_rng(seed))
    return PortLabeledGraph._from_validated(
        tuple(
            tuple((u ^ (1 << (p - 1)), p) for p in range(1, dim + 1))
            for u in range(n)
        )
    )


@tagged
def torus(rows: int, cols: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """2-D torus grid ``rows x cols`` (``rows, cols >= 3``).

    With ``seed=None``, ports are direction-labeled (1=+row, 2=−row,
    3=+col, 4=−col at every node) — vertex-transitive, quotient collapses.
    """
    if rows < 3 or cols < 3:
        raise ConfigurationError("torus needs rows, cols >= 3")

    def idx(r: int, c: int) -> int:
        return (r % rows) * cols + (c % cols)

    if seed is not None:
        adj = [
            [idx(r + 1, c), idx(r - 1, c), idx(r, c + 1), idx(r, c - 1)]
            for r in range(rows)
            for c in range(cols)
        ]
        return _label(adj, rng=_rng(seed))
    table = tuple(
        (
            (idx(r + 1, c), 2),
            (idx(r - 1, c), 1),
            (idx(r, c + 1), 4),
            (idx(r, c - 1), 3),
        )
        for r in range(rows)
        for c in range(cols)
    )
    return PortLabeledGraph._from_validated(table)


@tagged
def random_regular(n: int, d: int, seed: int = 0) -> PortLabeledGraph:
    """Connected random ``d``-regular graph (retries until connected).

    Sampling stays on networkx (its pairing-model RNG stream is the
    fixture contract); the sampled edge structure is labeled through the
    fast adjacency path in a single round-trip.
    """
    if n * d % 2 != 0 or d >= n:
        raise ConfigurationError(f"no {d}-regular graph on {n} nodes")
    import networkx as nx

    for attempt in range(64):
        g = nx.random_regular_graph(d, n, seed=seed + attempt)
        adj = [list(g.neighbors(u)) for u in range(n)]
        if _connected(adj):
            return _label(adj, rng=_rng(seed))
    raise ConfigurationError(f"could not sample connected {d}-regular graph on {n} nodes")


@tagged
def erdos_renyi(n: int, p: float, seed: int = 0) -> PortLabeledGraph:
    """Connected G(n, p) (resampled until connected; p is bumped on failure).

    Like :func:`random_regular`: networkx samples, we label — one
    round-trip, no re-validation.
    """
    import networkx as nx

    prob = p
    for attempt in range(64):
        g = nx.gnp_random_graph(n, prob, seed=seed + attempt)
        adj = [list(g.neighbors(u)) for u in range(n)]
        if _connected(adj):
            return _label(adj, rng=_rng(seed))
        prob = min(1.0, prob * 1.25)
    raise ConfigurationError(f"could not sample connected G({n},{p})")


@tagged
def random_tree(n: int, seed: int = 0) -> PortLabeledGraph:
    """Uniform random labeled tree on ``n`` nodes (Prüfer sampling)."""
    if n < 2:
        raise ConfigurationError("random_tree needs n >= 2")
    rng = np.random.default_rng(seed)
    if n == 2:
        return _label([[1], [0]])
    prufer = [int(rng.integers(0, n)) for _ in range(n - 2)]
    return _label(_prufer_to_adjacency(prufer, n), rng=rng)


@tagged
def lollipop(clique_n: int, path_n: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Lollipop graph: a clique glued to a path (classic cover-time worst case).

    Nodes ``0..clique_n-1`` form the clique; ``clique_n..clique_n+path_n-1``
    the path, attached at node ``clique_n - 1`` (networkx's layout).
    """
    if clique_n < 3 or path_n < 1:
        raise ConfigurationError("lollipop needs clique_n >= 3, path_n >= 1")
    n = clique_n + path_n
    adj: List[List[int]] = [
        [v for v in range(clique_n) if v != u] for u in range(clique_n)
    ]
    adj[clique_n - 1].append(clique_n)
    for u in range(clique_n, n):
        row = [u - 1]
        if u + 1 < n:
            row.append(u + 1)
        adj.append(row)
    return _label(adj, rng=_rng(seed))


@tagged
def complete_bipartite(a: int, b: int, seed: Optional[int] = None) -> PortLabeledGraph:
    """Complete bipartite graph K(a, b): sides ``0..a-1`` and ``a..a+b-1``."""
    if a < 1 or b < 1:
        raise ConfigurationError("complete_bipartite needs a, b >= 1")
    left = list(range(a))
    right = list(range(a, a + b))
    adj = [right] * a + [left] * b
    return _label(adj, rng=_rng(seed))


@tagged
def random_connected(n: int, seed: int = 0, avg_degree: float = 3.0) -> PortLabeledGraph:
    """A generic connected random graph with roughly ``avg_degree`` mean degree.

    The workhorse for property-based tests: take a random tree (guarantees
    connectivity) and sprinkle extra random edges on top.
    """
    rng = np.random.default_rng(seed)
    if n > 2:
        adj = _prufer_to_adjacency(
            [int(rng.integers(0, n)) for _ in range(n - 2)], n
        )
    else:
        adj = [[v for v in (u - 1, u + 1) if 0 <= v < n] for u in range(n)]
    edge_set = {(min(u, v), max(u, v)) for u in range(n) for v in adj[u]}
    extra = max(0, int(n * avg_degree / 2) - (n - 1))
    tries = 0
    while extra > 0 and tries < 50 * n:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        tries += 1
        if u != v and (min(u, v), max(u, v)) not in edge_set:
            edge_set.add((min(u, v), max(u, v)))
            adj[u].append(v)
            adj[v].append(u)
            extra -= 1
    return _label(adj, rng=rng)
