"""The exploration bound ``X(n)`` and a runnable exploration.

Table 1 of the paper prices several phases in units of ``X(n)`` — "the
number of rounds required to explore any graph of ``n`` nodes" — citing
Aleliunas et al. [2] (random walks / universal traversal sequences) and
Ta-Shma & Zwick [45] (universal exploration sequences).  These enter the
theorems only as multiplicative *charged* round costs, so
:func:`exploration_rounds` gives them as one integer formula per graph
(the ``Õ`` log factor spelled out as ``⌈log₂ n⌉``, constant 1), which
the oracle-gathering charges consume.  :func:`random_walk_cover` is an
actual random-walk exploration with measured cover time, the walk the
tests check that formula against.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from .port_labeled import PortLabeledGraph

__all__ = [
    "exploration_rounds",
    "random_walk_cover",
    "id_length_bits",
]


def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(max(n, 2))))


def exploration_rounds(graph: PortLabeledGraph) -> int:
    """``X(n)``: the tightest bound the paper licenses for ``graph``.

    Footnote 5's three branches, for ``n`` nodes and maximum degree ``d``:

    * simple ``d``-regular graphs: ``d·n³·⌈log₂n⌉``;
    * otherwise ``d²·n³·⌈log₂n⌉`` (robots learn ``d`` from their maps in
      all our uses);
    * no edges: ``n⁵·⌈log₂n⌉`` ([2, 45]).
    """
    n = graph.n
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    d = graph.max_degree()
    if d == 0:
        return n**5 * _log2_ceil(n)
    if graph.is_regular():
        return d * n**3 * _log2_ceil(n)
    return d * d * n**3 * _log2_ceil(n)


def random_walk_cover(
    graph: PortLabeledGraph,
    start: int,
    rng,
    max_steps: Optional[int] = None,
) -> Tuple[int, List[int]]:
    """Run a simple random walk until all nodes are visited.

    Returns ``(steps_taken, visit_order)``.  This is the constructive
    counterpart of the Aleliunas et al. bound (expected cover time
    ``O(n·m) ≤ O(n³)``); tests check that :func:`exploration_rounds`
    upper-bounds its measured cover time.

    Raises :class:`ConfigurationError` if ``max_steps`` is exhausted first
    (the default budget ``8·n·m·⌈log₂n⌉`` makes that astronomically
    unlikely for connected graphs).
    """
    n = graph.n
    if not graph.is_connected():
        raise ConfigurationError("random_walk_cover requires a connected graph")
    if max_steps is None:
        max_steps = 8 * n * max(graph.m, 1) * _log2_ceil(n) + 64
    visited = {start}
    order = [start]
    cur = start
    steps = 0
    while len(visited) < n:
        if steps >= max_steps:
            raise ConfigurationError(
                f"random walk failed to cover the graph within {max_steps} steps"
            )
        port = int(rng.integers(1, graph.degree(cur) + 1))
        cur, _ = graph.traverse_fast(cur, port)
        steps += 1
        if cur not in visited:
            visited.add(cur)
            order.append(cur)
    return steps, order


def id_length_bits(ids) -> int:
    """``|Λ|`` — the bit length of the largest ID in ``ids``.

    The paper charges gathering in units of ``|Λgood|`` (honest IDs only)
    or ``|Λall|`` (all IDs); callers select the population.
    """
    ids = list(ids)
    if not ids or min(ids) < 1:
        raise ConfigurationError("robot IDs must be positive")
    return max(1, max(ids).bit_length())
