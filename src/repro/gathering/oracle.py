"""Oracle-charged gathering substrates (paper Section 3 Phase 1, Section 4).

The paper's arbitrary-start algorithms open with a gathering phase taken
wholesale from prior work, and its round cost *dominates* the reported
bounds:

* weak Byzantine, any ``f``: Dieudonné–Pelc–Peleg [24] —
  ``4·n⁴·P(n, |Λgood|)`` rounds, with ``P(n, l) = O(l·X(n))`` [27].
* weak Byzantine, ``f = O(√n)``: Hirose et al. [27] —
  ``O((f + |Λall|)·X(n))`` rounds.
* strong Byzantine (``f`` known): [24] — exponential rounds.

As EXPERIMENTS.md ("What is simulated and what is charged") sets out,
we *enact the post-condition* (all honest robots co-located on a
deterministically chosen node; Byzantine robots placed by the adversary)
and charge the cited cost as an exact integer.  The theorems consume
gathering strictly as a black box, so downstream behaviour is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError
from ..graphs.exploration import ExplorationCostModel, DEFAULT_COST_MODEL, id_length_bits
from ..graphs.isomorphism import canonical_form
from ..graphs.port_labeled import PortLabeledGraph

__all__ = [
    "GatheringCharge",
    "weak_gathering_rounds",
    "hirose_gathering_rounds",
    "strong_gathering_rounds",
    "canonical_gather_node",
]


@dataclass(frozen=True)
class GatheringCharge:
    """A priced gathering outcome: where everyone meets and what it cost."""

    node: int
    rounds: int
    method: str


def canonical_gather_node(graph: PortLabeledGraph) -> int:
    """A deterministic, label-invariant meeting node.

    The prior-work algorithms determine *some* common node; any fixed
    choice preserves behaviour.  We take the node whose rooted canonical
    form is lexicographically smallest, so the choice does not depend on
    simulator-internal node numbering (and ties across symmetric nodes
    resolve to the smallest true name, which is as arbitrary as the
    original algorithms' choice).
    """
    best_node = 0
    best_form = None
    for v in range(graph.n):
        form = canonical_form(graph, v)
        if best_form is None or form < best_form:
            best_form = form
            best_node = v
    return best_node


def weak_gathering_rounds(
    graph: PortLabeledGraph,
    honest_ids: Sequence[int],
    model: ExplorationCostModel = DEFAULT_COST_MODEL,
) -> int:
    """[24]'s weak-Byzantine gathering cost: ``4·n⁴·|Λgood|·X(n)``."""
    if not honest_ids:
        raise ConfigurationError("need at least one honest robot")
    n = graph.n
    lam = id_length_bits(honest_ids)
    return 4 * n**4 * lam * model.best_available(graph)


def hirose_gathering_rounds(
    graph: PortLabeledGraph,
    all_ids: Sequence[int],
    f: int,
    model: ExplorationCostModel = DEFAULT_COST_MODEL,
) -> int:
    """[27]'s gathering cost for ``f = O(√n)``: ``(f + |Λall|)·X(n)``."""
    if f < 0:
        raise ConfigurationError("f must be >= 0")
    lam = id_length_bits(all_ids)
    return (f + lam) * model.best_available(graph)


def strong_gathering_rounds(graph: PortLabeledGraph) -> int:
    """[24]'s strong-Byzantine gathering: exponential; we charge ``2ⁿ·n²``.

    The paper states only "exponential in n"; the stand-in formula is
    documented in EXPERIMENTS.md ("What is simulated and what is
    charged") — only the exponential-vs-polynomial contrast of Table 1
    rows 6/7 matters.
    """
    n = graph.n
    return (2**n) * n * n
