"""Majority voting over candidate maps (Sections 3.1–3.3).

Robots compare maps up to *rooted port-preserving isomorphism*; since
rooted port-labeled graphs are rigid, the canonical encoding of
:func:`repro.graphs.isomorphism.canonical_form` is a complete invariant
and voting reduces to counting equal encodings.  The winner is decoded
back into a :class:`PortLabeledGraph` whose node 0 is the root (the
node the robots stand on), ready for Dispersion-Using-Map.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..errors import MapError
from ..graphs.isomorphism import CanonicalForm, canonical_form
from ..graphs.port_labeled import PortLabeledGraph

__all__ = ["majority_encoding", "decode_canonical", "majority_map"]


def majority_encoding(
    candidates: Iterable[Optional[CanonicalForm]],
) -> Optional[CanonicalForm]:
    """The most frequent non-``None`` encoding; ties break deterministically.

    Under the theorems' tolerance bounds the correct encoding holds an
    absolute majority, so the tie-break never fires on valid runs; it
    exists to keep beyond-tolerance experiments deterministic.
    """
    votes = Counter(c for c in candidates if c is not None)
    if not votes:
        return None
    best = max(votes.items(), key=lambda kv: (kv[1], kv[0]))
    return best[0]


def decode_canonical(encoding: CanonicalForm) -> PortLabeledGraph:
    """Rebuild the rooted map a canonical encoding describes.

    The encoding lists ``(u, p, v, q)`` for every directed port crossing
    in canonical labeling, which is exactly a port table.
    """
    table: Dict[int, Dict[int, Tuple[int, int]]] = {}
    for u, p, v, q in encoding:
        table.setdefault(u, {})[p] = (v, q)
        table.setdefault(v, {})
    n = len(table)
    if set(table.keys()) != set(range(n)):
        raise MapError("canonical encoding does not label nodes 0..n-1")
    return PortLabeledGraph(table)


def majority_map(
    candidates: Iterable[Optional[PortLabeledGraph]],
    decode: Callable[[CanonicalForm], PortLabeledGraph] = decode_canonical,
) -> Optional[PortLabeledGraph]:
    """Vote over map objects directly (root = node 0 by convention).

    ``decode`` turns the winning encoding back into a map; a solve passes
    :meth:`~repro.mapping.token_mapping.ExplorerMemo.decode`, so that the
    robots electing one map share one decoded copy.
    """
    encodings = [
        canonical_form(c, 0) if c is not None else None for c in candidates
    ]
    winner = majority_encoding(encodings)
    return decode(winner) if winner is not None else None
