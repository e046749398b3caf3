"""Tests for view refinement and quotient graph construction."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import GraphStructureError
from repro.graphs import (
    PortLabeledGraph,
    clique,
    hypercube,
    is_quotient_isomorphic,
    path,
    quotient_graph,
    random_connected,
    ring,
    star,
    torus,
    truncated_view,
    view_partition,
)


class TestViewPartition:
    def test_symmetric_ring_single_class(self):
        assert set(view_partition(ring(7))) == {0}

    def test_path_symmetry(self):
        # A path 0-1-2-3-4 with deterministic labeling: endpoints mirror,
        # and the middle node is alone in its class.
        part = view_partition(path(5))
        assert part[0] != part[2]
        assert len(set(part)) >= 2

    def test_star_all_views_distinct(self):
        # Each leaf sees a different in-port at the hub, so port labels
        # break the apparent symmetry: all views are distinct and the
        # star is in the Theorem 1 graph class.
        part = view_partition(star(6))
        assert len(set(part)) == 6
        assert is_quotient_isomorphic(star(6))

    def test_degree_refinement_baseline(self, zoo_graph):
        # Nodes in the same class must at minimum share a degree.
        g = zoo_graph
        part = view_partition(g)
        for u in range(g.n):
            for v in range(g.n):
                if part[u] == part[v]:
                    assert g.degree(u) == g.degree(v)

    def test_partition_deterministic(self, zoo_graph):
        assert view_partition(zoo_graph) == view_partition(zoo_graph)

    def test_empty_graph(self):
        assert view_partition(PortLabeledGraph({})) == []

    @given(seed=st.integers(0, 30), n=st.integers(4, 10))
    def test_agrees_with_truncated_views(self, seed, n):
        """Norris' theorem: depth n-1 truncated views decide equivalence."""
        g = random_connected(n, seed=seed)
        part = view_partition(g)
        depth = min(n - 1, 6)  # keep exponential blowup in check
        views = [truncated_view(g, u, depth) for u in range(g.n)]
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if part[u] == part[v]:
                    assert views[u] == views[v]
                else:
                    # Distinct classes must differ within depth n-1; when we
                    # truncated earlier than n-1 the check is one-sided only.
                    if depth >= n - 1:
                        assert views[u] != views[v]


class TestQuotientGraph:
    def test_collapsed_families(self):
        for g in (ring(6), clique(5), hypercube(3), torus(3, 3)):
            q = quotient_graph(g)
            assert q.num_classes == 1
            assert q.degree(0) == g.degree(0)

    def test_quotient_ports_consistent(self, zoo_graph):
        g = zoo_graph
        q = quotient_graph(g)
        # Every real edge must be reflected classwise in the quotient.
        for u in range(g.n):
            for p in g.ports(u):
                v, qport = g.traverse(u, p)
                assert q.traverse(q.class_of[u], p) == (q.class_of[v], qport)

    def test_to_port_labeled_when_distinct(self):
        g = random_connected(9, seed=7)
        if is_quotient_isomorphic(g):
            h = quotient_graph(g).to_port_labeled()
            assert h.n == g.n and h.m == g.m

    def test_to_port_labeled_rejected_when_collapsed(self):
        with pytest.raises(GraphStructureError):
            quotient_graph(ring(6)).to_port_labeled()

    def test_quotient_idempotent_on_distinct(self):
        g = random_connected(8, seed=5)
        assert is_quotient_isomorphic(g)
        h = quotient_graph(g).to_port_labeled()
        assert is_quotient_isomorphic(h)
        # Quotient of the quotient is itself.
        q2 = quotient_graph(h)
        assert q2.num_classes == h.n


class TestIsQuotientIsomorphic:
    def test_positive(self):
        assert is_quotient_isomorphic(random_connected(10, seed=3))

    def test_negative_vertex_transitive(self):
        for g in (ring(5), clique(4), hypercube(2), torus(3, 3)):
            assert not is_quotient_isomorphic(g)

    @given(seed=st.integers(0, 20))
    def test_equivalent_to_all_views_distinct(self, seed):
        g = random_connected(8, seed=seed)
        part = view_partition(g)
        assert is_quotient_isomorphic(g) == (len(set(part)) == g.n)
