"""Tests for the graph family generators."""

import networkx as nx
import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphs import (
    FAMILIES,
    GraphSpec,
    PortLabeledGraph,
    clique,
    complete_bipartite,
    erdos_renyi,
    hypercube,
    lollipop,
    path,
    quotient_graph,
    random_connected,
    random_regular,
    random_tree,
    resolve_spec,
    ring,
    spec_of,
    star,
    torus,
    view_partition,
)

#: Every generator with representative calls, including both the
#: canonical (seed=None) and the rng-scrambled labelings where they
#: exist.  Each entry: (generator name, args tuple).
GENERATOR_CALLS = [
    ("ring", (6,)),
    ("ring", (9, 4)),
    ("path", (2,)),
    ("path", (7, 1)),
    ("clique", (5,)),
    ("clique", (6, 2)),
    ("star", (6,)),
    ("star", (8, 3)),
    ("hypercube", (3,)),
    ("hypercube", (4, 5)),
    ("torus", (3, 4)),
    ("torus", (4, 5, 6)),
    ("complete_bipartite", (3, 4)),
    ("complete_bipartite", (1, 5, 2)),
    ("lollipop", (4, 3)),
    ("lollipop", (5, 2, 7)),
    ("random_tree", (2, 0)),
    ("random_tree", (11, 8)),
    ("random_regular", (10, 3, 1)),
    ("erdos_renyi", (12, 0.3, 2)),
    ("random_connected", (2, 1)),
    ("random_connected", (12, 9)),
]

_GENERATORS = {
    "ring": ring,
    "path": path,
    "clique": clique,
    "star": star,
    "hypercube": hypercube,
    "torus": torus,
    "complete_bipartite": complete_bipartite,
    "lollipop": lollipop,
    "random_tree": random_tree,
    "random_regular": random_regular,
    "erdos_renyi": erdos_renyi,
    "random_connected": random_connected,
}

_ids = [f"{name}{args}" for name, args in GENERATOR_CALLS]


# --------------------------------------------------------------------- #
# Oracle builders: the original networkx construction path, kept
# executable as the reference the closed-form generators must equal.
# Each builds a networkx graph, labels it, and re-checks the full
# structural contract in the validating constructor.
# --------------------------------------------------------------------- #

def _np_rng(seed):
    return None if seed is None else np.random.default_rng(seed)


def _oracle_ring(n, seed=None):
    if seed is not None:
        return PortLabeledGraph.from_networkx(nx.cycle_graph(n), rng=_np_rng(seed))
    return PortLabeledGraph(
        {u: {1: ((u + 1) % n, 2), 2: ((u - 1) % n, 1)} for u in range(n)}
    )


def _oracle_path(n, seed=None):
    return PortLabeledGraph.from_networkx(nx.path_graph(n), rng=_np_rng(seed))


def _oracle_clique(n, seed=None):
    if seed is not None:
        return PortLabeledGraph.from_networkx(nx.complete_graph(n), rng=_np_rng(seed))
    return PortLabeledGraph(
        {u: {p: ((u + p) % n, n - p) for p in range(1, n)} for u in range(n)}
    )


def _oracle_star(n, seed=None):
    return PortLabeledGraph.from_networkx(nx.star_graph(n - 1), rng=_np_rng(seed))


def _oracle_hypercube(dim, seed=None):
    if seed is not None:
        g = nx.convert_node_labels_to_integers(nx.hypercube_graph(dim), ordering="sorted")
        return PortLabeledGraph.from_networkx(g, rng=_np_rng(seed))
    n = 1 << dim
    return PortLabeledGraph(
        {u: {p: (u ^ (1 << (p - 1)), p) for p in range(1, dim + 1)} for u in range(n)}
    )


def _oracle_torus(rows, cols, seed=None):
    if seed is not None:
        g = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(rows, cols, periodic=True), ordering="sorted"
        )
        return PortLabeledGraph.from_networkx(g, rng=_np_rng(seed))
    idx = lambda r, c: (r % rows) * cols + (c % cols)  # noqa: E731
    return PortLabeledGraph(
        {
            idx(r, c): {
                1: (idx(r + 1, c), 2),
                2: (idx(r - 1, c), 1),
                3: (idx(r, c + 1), 4),
                4: (idx(r, c - 1), 3),
            }
            for r in range(rows)
            for c in range(cols)
        }
    )


def _oracle_complete_bipartite(a, b, seed=None):
    return PortLabeledGraph.from_networkx(
        nx.complete_bipartite_graph(a, b), rng=_np_rng(seed)
    )


def _oracle_lollipop(clique_n, path_n, seed=None):
    return PortLabeledGraph.from_networkx(
        nx.lollipop_graph(clique_n, path_n), rng=_np_rng(seed)
    )


def _oracle_random_tree(n, seed=0):
    rng = np.random.default_rng(seed)
    if n == 2:
        return PortLabeledGraph.from_edges(2, [(0, 1)])
    prufer = [int(rng.integers(0, n)) for _ in range(n - 2)]
    return PortLabeledGraph.from_networkx(nx.from_prufer_sequence(prufer), rng=rng)


def _oracle_random_connected(n, seed=0, avg_degree=3.0):
    rng = np.random.default_rng(seed)
    tree = (
        nx.from_prufer_sequence([int(rng.integers(0, n)) for _ in range(n - 2)])
        if n > 2
        else nx.path_graph(n)
    )
    g = nx.Graph(tree)
    extra = max(0, int(n * avg_degree / 2) - (n - 1))
    tries = 0
    while extra > 0 and tries < 50 * n:
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        tries += 1
        if u != v and not g.has_edge(u, v):
            g.add_edge(u, v)
            extra -= 1
    return PortLabeledGraph.from_networkx(g, rng=rng)


def _oracle_erdos_renyi(n, p, seed=0):
    prob = p
    for attempt in range(64):
        g = nx.gnp_random_graph(n, prob, seed=seed + attempt)
        if nx.is_connected(g):
            return PortLabeledGraph.from_networkx(g, rng=_np_rng(seed))
        prob = min(1.0, prob * 1.25)
    raise RuntimeError("unreachable at test sizes")


def _oracle_random_regular(n, d, seed=0):
    for attempt in range(64):
        g = nx.random_regular_graph(d, n, seed=seed + attempt)
        if nx.is_connected(g):
            return PortLabeledGraph.from_networkx(g, rng=_np_rng(seed))
    raise RuntimeError("unreachable at test sizes")


#: Generator name -> oracle builder with the same signature.
ORACLES = {
    "ring": _oracle_ring,
    "path": _oracle_path,
    "clique": _oracle_clique,
    "star": _oracle_star,
    "hypercube": _oracle_hypercube,
    "torus": _oracle_torus,
    "complete_bipartite": _oracle_complete_bipartite,
    "lollipop": _oracle_lollipop,
    "random_tree": _oracle_random_tree,
    "random_connected": _oracle_random_connected,
    "erdos_renyi": _oracle_erdos_renyi,
    "random_regular": _oracle_random_regular,
}


class TestGeneratorEquivalence:
    """The networkx-free generators must be indistinguishable from the
    networkx-built graphs: full validation, round-trips, and ``==`` to
    the oracle path for fixed seeds."""

    @pytest.mark.parametrize("name,args", GENERATOR_CALLS, ids=_ids)
    def test_output_passes_full_validation(self, name, args):
        g = _GENERATORS[name](*args)
        # The validating constructor is the structural oracle: rebuilding
        # from the port table re-runs every check the trusted path skips.
        assert PortLabeledGraph(g.port_table()) == g

    @pytest.mark.parametrize("name,args", GENERATOR_CALLS, ids=_ids)
    def test_matches_networkx_oracle(self, name, args):
        assert _GENERATORS[name](*args) == ORACLES[name](*args)

    @pytest.mark.parametrize("name,args", GENERATOR_CALLS, ids=_ids)
    def test_networkx_round_trip(self, name, args):
        g = _GENERATORS[name](*args)
        h = g.to_networkx()
        assert h.number_of_nodes() == g.n and h.number_of_edges() == g.m
        # Deterministic relabeling of the exported edge structure yields a
        # valid graph with the same degree sequence.
        rebuilt = PortLabeledGraph.from_networkx(h)
        assert sorted(rebuilt.degree(u) for u in range(rebuilt.n)) == sorted(
            g.degree(u) for u in range(g.n)
        )

    @pytest.mark.parametrize("name,args", GENERATOR_CALLS, ids=_ids)
    def test_spec_round_trip(self, name, args):
        g = _GENERATORS[name](*args)
        spec = spec_of(g)
        assert isinstance(spec, GraphSpec) and spec.family == name
        assert resolve_spec(spec) == g

    def test_hand_built_graph_has_no_spec(self):
        g = PortLabeledGraph.from_edges(3, [(0, 1), (1, 2)])
        assert spec_of(g) is None

    def test_resolve_spec_memoises_per_process(self):
        spec = spec_of(ring(8, 1))
        assert resolve_spec(spec) is resolve_spec(spec)


class TestRing:
    def test_sizes(self):
        for n in (3, 4, 9):
            g = ring(n)
            assert g.n == n and g.m == n and g.is_regular()

    def test_canonical_labeling_symmetric(self):
        g = ring(6)
        for u in range(6):
            assert g.traverse(u, 1) == ((u + 1) % 6, 2)
            assert g.traverse(u, 2) == ((u - 1) % 6, 1)

    def test_canonical_quotient_collapses(self):
        assert quotient_graph(ring(8)).num_classes == 1

    def test_seeded_variant_valid(self):
        g = ring(7, seed=2)
        assert g.n == 7 and g.m == 7

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            ring(2)


class TestClique:
    def test_sizes(self):
        g = clique(5)
        assert g.n == 5 and g.m == 10

    def test_circulant_labeling_collapses(self):
        assert quotient_graph(clique(6)).num_classes == 1

    def test_circulant_structure(self):
        g = clique(5)
        for u in range(5):
            for p in range(1, 5):
                assert g.traverse(u, p) == ((u + p) % 5, 5 - p)

    def test_too_small(self):
        with pytest.raises(ConfigurationError):
            clique(1)


class TestHypercubeTorus:
    def test_hypercube_sizes(self):
        g = hypercube(3)
        assert g.n == 8 and g.m == 12 and g.is_regular()

    def test_hypercube_dimension_ports(self):
        g = hypercube(3)
        for u in range(8):
            for p in range(1, 4):
                v, q = g.traverse(u, p)
                assert v == u ^ (1 << (p - 1)) and q == p

    def test_hypercube_collapses(self):
        assert quotient_graph(hypercube(4)).num_classes == 1

    def test_torus_sizes(self):
        g = torus(3, 4)
        assert g.n == 12 and g.m == 24 and g.is_regular()

    def test_torus_collapses(self):
        assert quotient_graph(torus(3, 3)).num_classes == 1

    def test_torus_too_small(self):
        with pytest.raises(ConfigurationError):
            torus(2, 5)


class TestOtherFamilies:
    def test_path_endpoints(self):
        g = path(5)
        degs = sorted(g.degree(u) for u in range(5))
        assert degs == [1, 1, 2, 2, 2]

    def test_star_hub(self):
        g = star(6)
        assert g.max_degree() == 5 and g.m == 5

    def test_random_regular_connected(self):
        g = random_regular(10, 3, seed=0)
        assert g.is_connected() and g.is_regular() and g.degree(0) == 3

    def test_random_regular_impossible(self):
        with pytest.raises(ConfigurationError):
            random_regular(5, 3, seed=0)  # odd n*d

    def test_erdos_renyi_connected(self):
        g = erdos_renyi(12, 0.3, seed=1)
        assert g.is_connected() and g.n == 12

    def test_random_tree_is_tree(self):
        g = random_tree(9, seed=4)
        assert g.n == 9 and g.m == 8 and g.is_connected()

    def test_random_tree_n2(self):
        g = random_tree(2, seed=0)
        assert g.m == 1

    def test_lollipop_shape(self):
        g = lollipop(4, 3)
        assert g.n == 7 and g.is_connected()

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7 and g.m == 12

    def test_random_connected_connected_and_dense_enough(self):
        for seed in range(5):
            g = random_connected(10, seed=seed)
            assert g.is_connected()
            assert g.m >= g.n - 1

    def test_random_connected_usually_view_distinct(self):
        # Asymmetric random graphs are view-distinguishable w.h.p.; check a
        # majority of seeds to avoid over-fitting a single lucky instance.
        hits = sum(
            1
            for seed in range(8)
            if len(set(view_partition(random_connected(11, seed=seed)))) == 11
        )
        assert hits >= 6


class TestFamilyRegistry:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_registry_generates_connected(self, name):
        g = FAMILIES[name](9, seed=2)
        assert g.is_connected()
        assert g.n >= 8  # registry may round n for parity constraints
