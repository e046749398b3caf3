"""Tests for the exploration bound X(n) and the random-walk explorer."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.graphs import (
    PortLabeledGraph,
    clique,
    exploration_rounds,
    hypercube,
    id_length_bits,
    path,
    random_walk_cover,
    ring,
    star,
)


def edgeless(n):
    return PortLabeledGraph.from_edges(n, [])


class TestCostModel:
    def test_general_formula(self):
        # No edges: n^5 * ceil(log2 n)
        assert exploration_rounds(edgeless(8)) == 8**5 * 3
        assert exploration_rounds(edgeless(10)) == 10**5 * 4

    def test_max_degree_formula(self):
        # Not regular, max degree d = 3: d^2 * n^3 * ceil(log2 n)
        g = PortLabeledGraph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
        assert exploration_rounds(g) == 9 * 4**3 * 2

    def test_regular_formula(self):
        # d-regular, d = 2: d * n^3 * ceil(log2 n)
        assert exploration_rounds(ring(8)) == 2 * 8**3 * 3

    def test_regular_cheaper_than_max_degree(self):
        # Same n and max degree: the regular graph takes the cheaper branch.
        for n in (8, 16, 64):
            assert exploration_rounds(ring(n)) < exploration_rounds(path(n))
        assert exploration_rounds(clique(4)) < exploration_rounds(star(4))

    def test_picks_regular_branch(self):
        assert exploration_rounds(hypercube(3)) == 3 * 8**3 * 3

    def test_picks_max_degree_branch(self):
        assert exploration_rounds(star(6)) == 5 * 5 * 6**3 * 3

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            exploration_rounds(PortLabeledGraph({}))

    def test_monotone_in_n(self):
        vals = [exploration_rounds(edgeless(n)) for n in range(2, 30)]
        assert vals == sorted(vals)


class TestRandomWalk:
    def test_covers_graph(self, zoo_graph):
        steps, order = random_walk_cover(zoo_graph, 0, np.random.default_rng(0))
        assert sorted(order) == list(range(zoo_graph.n))
        assert steps >= zoo_graph.n - 1

    def test_cost_model_upper_bounds_walk(self):
        """The paper's X(n) dominates measured cover times on the
        benchmark families by construction — sanity check at small n."""
        g = ring(9)
        steps, _ = random_walk_cover(g, 0, np.random.default_rng(1))
        assert steps <= exploration_rounds(g)

    def test_budget_exhaustion_raises(self):
        g = ring(12)
        with pytest.raises(ConfigurationError):
            random_walk_cover(g, 0, np.random.default_rng(0), max_steps=2)

    def test_disconnected_rejected(self):
        g = PortLabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConfigurationError):
            random_walk_cover(g, 0, np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        g = ring(8)
        s1, o1 = random_walk_cover(g, 0, np.random.default_rng(42))
        s2, o2 = random_walk_cover(g, 0, np.random.default_rng(42))
        assert (s1, o1) == (s2, o2)


class TestIdLength:
    def test_bit_lengths(self):
        assert id_length_bits([1]) == 1
        assert id_length_bits([1, 2, 3]) == 2
        assert id_length_bits([255]) == 8
        assert id_length_bits([256]) == 9

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            id_length_bits([0, 5])
