"""Tests for the gathering substrates (oracle charges + the meeting node)."""

import numpy as np
import pytest

from repro.core.find_map import private_quotient_map
from repro.errors import ConfigurationError
from repro.gathering import (
    canonical_gather_node,
    hirose_gathering_rounds,
    strong_gathering_rounds,
    weak_gathering_rounds,
)
from repro.graphs import exploration_rounds, find_isomorphism, random_connected, ring


class TestOracleCharges:
    def test_weak_formula(self, rc8):
        # 4 * n^4 * |Λgood| * X(n); ids 1..8 -> 4 bits (8 = 0b1000)
        lam = 8 .bit_length()
        expected = 4 * 8**4 * lam * exploration_rounds(rc8)
        assert weak_gathering_rounds(rc8, list(range(1, 9))) == expected

    def test_weak_grows_with_id_length(self, rc8):
        short = weak_gathering_rounds(rc8, [1, 2, 3])
        long = weak_gathering_rounds(rc8, [1, 2, 3, 10**6])
        assert long > short

    def test_weak_needs_honest(self, rc8):
        with pytest.raises(ConfigurationError):
            weak_gathering_rounds(rc8, [])

    def test_hirose_formula(self, rc8):
        x = exploration_rounds(rc8)
        assert hirose_gathering_rounds(rc8, list(range(1, 9)), 2) == (2 + 4) * x

    def test_hirose_cheaper_than_weak(self, rc8):
        ids = list(range(1, 9))
        assert hirose_gathering_rounds(rc8, ids, 2) < weak_gathering_rounds(rc8, ids)

    def test_strong_exponential(self):
        g = random_connected(10, seed=1)
        assert strong_gathering_rounds(g) == 2**10 * 100

    def test_strong_blows_past_polynomials(self):
        # Exponential vs the paper's largest polynomial bound (~n^9): the
        # crossover sits past n≈40; check both sides of it.
        assert strong_gathering_rounds(ring(24)) < 24**9
        assert strong_gathering_rounds(ring(64)) > 64**9

    def test_hirose_rejects_negative_f(self, rc8):
        with pytest.raises(ConfigurationError):
            hirose_gathering_rounds(rc8, [1, 2], -1)


class TestCanonicalGatherNode:
    def test_deterministic(self, rc8):
        assert canonical_gather_node(rc8) == canonical_gather_node(rc8)

    def test_label_invariant(self):
        g = random_connected(9, seed=4)
        perm = [(i + 3) % 9 for i in range(9)]
        h = g.relabel(perm)
        assert canonical_gather_node(h) == perm[canonical_gather_node(g)]

    def test_in_range(self, zoo_graph):
        assert 0 <= canonical_gather_node(zoo_graph) < zoo_graph.n

    def test_canonical_node_on_map_matches_world(self):
        g = random_connected(9, seed=7)
        m, root = private_quotient_map(g, 2, np.random.default_rng(5))
        iso = find_isomorphism(m, root, g, 2)
        assert iso[canonical_gather_node(m)] == canonical_gather_node(g)
