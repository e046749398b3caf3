"""Graph substrate: anonymous port-labeled graphs, views, quotients, maps.

Public surface of :mod:`repro.graphs`; see the individual modules for the
theory references.  Everything the simulator and the paper's algorithms
know about graphs flows through these exports.
"""

from .exploration import exploration_rounds, id_length_bits, random_walk_cover
from .generators import (
    clique,
    complete_bipartite,
    erdos_renyi,
    hypercube,
    lollipop,
    path,
    random_connected,
    random_regular,
    random_tree,
    ring,
    star,
    torus,
)
from .isomorphism import canonical_form, find_isomorphism, rooted_isomorphic
from .port_labeled import PortLabeledGraph
from .quotient import QuotientGraph, is_quotient_isomorphic, quotient_graph
from .specs import (
    GraphSpec,
    canonical_spec,
    clear_spec_cache,
    graph_fingerprint,
    resolve_spec,
    spec_of,
)
from .traversal import TourStep, bfs_order, euler_tour, navigate, path_nodes
from .views import truncated_view, view_partition

__all__ = [
    "PortLabeledGraph",
    "GraphSpec",
    "spec_of",
    "canonical_spec",
    "graph_fingerprint",
    "resolve_spec",
    "clear_spec_cache",
    "QuotientGraph",
    "quotient_graph",
    "is_quotient_isomorphic",
    "view_partition",
    "truncated_view",
    "canonical_form",
    "rooted_isomorphic",
    "find_isomorphism",
    "TourStep",
    "euler_tour",
    "navigate",
    "bfs_order",
    "path_nodes",
    "exploration_rounds",
    "random_walk_cover",
    "id_length_bits",
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
