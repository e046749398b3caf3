"""Tests for map traversal: Euler tours, navigation, BFS orders."""

import pytest
from hypothesis import given, strategies as st

import repro.graphs.traversal as traversal
from repro.errors import MapError
from repro.graphs import (
    PortLabeledGraph,
    bfs_order,
    euler_tour,
    navigate,
    path_nodes,
    random_connected,
    ring,
)


class TestEulerTour:
    def test_length_is_2n_minus_2(self, zoo_graph):
        g = zoo_graph
        tour = euler_tour(g, 0)
        assert len(tour) == 2 * (g.n - 1)

    def test_visits_every_node(self, zoo_graph):
        g = zoo_graph
        tour = euler_tour(g, 0)
        visited = {0} | {s.node for s in tour}
        assert visited == set(range(g.n))

    def test_returns_to_root(self, zoo_graph):
        tour = euler_tour(zoo_graph, 0)
        if tour:
            assert tour[-1].node == 0

    def test_ports_are_walkable(self, zoo_graph):
        g = zoo_graph
        pos = 0
        for step in euler_tour(g, 0):
            pos, _ = g.traverse(pos, step.port)
            assert pos == step.node

    def test_first_visit_flags(self, zoo_graph):
        g = zoo_graph
        firsts = [s.node for s in euler_tour(g, 0) if s.first_visit]
        assert sorted(firsts) == sorted(set(range(g.n)) - {0})
        assert len(firsts) == g.n - 1  # each node discovered exactly once

    def test_each_tree_edge_twice(self, zoo_graph):
        g = zoo_graph
        tour = euler_tour(g, 0)
        # n-1 first visits + n-1 backtracks.
        assert sum(1 for s in tour if not s.first_visit) == g.n - 1

    @given(root=st.integers(0, 8), seed=st.integers(0, 15))
    def test_any_root(self, root, seed):
        g = random_connected(9, seed=seed)
        tour = euler_tour(g, root)
        visited = {root} | {s.node for s in tour}
        assert visited == set(range(9))
        if tour:
            assert tour[-1].node == root

    def test_disconnected_rejected(self):
        g = PortLabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(MapError):
            euler_tour(g, 0)

    def test_single_node(self):
        assert euler_tour(PortLabeledGraph({0: {}}), 0) == []

    def test_deterministic(self, zoo_graph):
        # Two graph objects: the second tour is computed, not the cached one.
        twin = PortLabeledGraph(zoo_graph.port_table())
        assert euler_tour(zoo_graph, 0) == euler_tour(twin, 0)

    def test_each_call_returns_a_fresh_list(self, monkeypatch):
        """The tour is computed once per graph object and root; callers
        get their own list, so mutating one does not change the next."""
        computed = []

        def counting(graph, root):
            computed.append(root)
            return dfs_tour(graph, root)

        dfs_tour = traversal._dfs_tour
        monkeypatch.setattr(traversal, "_dfs_tour", counting)
        g = random_connected(9, seed=4)
        first = euler_tour(g, 2)
        expected = list(first)
        first.pop()
        first[0] = None
        again = euler_tour(g, 2)
        assert again == expected and again is not first
        assert euler_tour(g, 0) != expected
        assert computed == [2, 0]


class TestNavigate:
    def test_path_reaches_destination(self, zoo_graph):
        g = zoo_graph
        for dst in range(g.n):
            ports = navigate(g, 0, dst)
            assert path_nodes(g, 0, ports)[-1] == dst

    def test_shortest_on_ring(self):
        g = ring(8)
        assert len(navigate(g, 0, 4)) == 4
        assert len(navigate(g, 0, 1)) == 1
        assert navigate(g, 3, 3) == []

    def test_deterministic(self, zoo_graph):
        assert navigate(zoo_graph, 0, zoo_graph.n - 1) == navigate(
            zoo_graph, 0, zoo_graph.n - 1
        )

    def test_disconnected_raises(self):
        g = PortLabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(MapError):
            navigate(g, 0, 3)

    @given(seed=st.integers(0, 15), a=st.integers(0, 7), b=st.integers(0, 7))
    def test_symmetric_lengths(self, seed, a, b):
        g = random_connected(8, seed=seed)
        assert len(navigate(g, a, b)) == len(navigate(g, b, a))


class TestBfsOrder:
    def test_covers_all_once(self, zoo_graph):
        order = bfs_order(zoo_graph, 0)
        assert sorted(order) == list(range(zoo_graph.n))

    def test_starts_at_root(self, zoo_graph):
        assert bfs_order(zoo_graph, 0)[0] == 0

    def test_commutes_with_isomorphism(self):
        """The rank-dispersion soundness property (Section 4 Phase 2):
        isomorphic maps with corresponding roots order the *same real
        nodes* identically."""
        import numpy as np

        g = random_connected(9, seed=3)
        rng = np.random.default_rng(7)
        perm = [int(x) for x in rng.permutation(9)]
        h = g.relabel(perm)
        og = bfs_order(g, 2)
        oh = bfs_order(h, perm[2])
        assert [perm[u] for u in og] == oh

    def test_monotone_distance(self):
        g = ring(7)
        order = bfs_order(g, 0)
        dist = {0: 0}
        for u in order[1:]:
            # ring distances from 0
            dist[u] = min(u, 7 - u)
        ds = [dist[u] for u in order]
        assert ds == sorted(ds)

    def test_disconnected_raises(self):
        g = PortLabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(MapError):
            bfs_order(g, 0)
