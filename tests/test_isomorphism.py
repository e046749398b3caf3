"""Tests for canonical forms and port-preserving isomorphism."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.graphs import (
    canonical_form,
    clique,
    find_isomorphism,
    path,
    random_connected,
    ring,
    rooted_isomorphic,
)


def shuffled_copy(g, seed, shift=0):
    rng = np.random.default_rng(seed)
    perm = [int(x) for x in rng.permutation(g.n)]
    return g.relabel(perm), perm


class TestCanonicalForm:
    def test_complete_invariant_under_relabel(self):
        g = random_connected(9, seed=2)
        h, perm = shuffled_copy(g, seed=11)
        for root in range(g.n):
            assert canonical_form(g, root) == canonical_form(h, perm[root])

    def test_root_sensitivity_on_asymmetric_graph(self):
        g = random_connected(9, seed=2)
        forms = [canonical_form(g, root) for root in range(g.n)]
        # All views distinct (w.h.p. for this seed) => all forms distinct.
        assert len(set(forms)) == g.n

    def test_root_insensitivity_on_symmetric_graph(self):
        forms = [canonical_form(ring(6), root) for root in range(6)]
        assert len(set(forms)) == 1

    def test_encoding_covers_all_directed_ports(self, zoo_graph):
        g = zoo_graph
        form = canonical_form(g, 0)
        assert len(form) == 2 * g.m

    @given(seed=st.integers(0, 25))
    def test_relabel_invariance_property(self, seed):
        g = random_connected(7, seed=seed)
        h, perm = shuffled_copy(g, seed=seed + 100)
        assert canonical_form(g, 3) == canonical_form(h, perm[3])


class TestIsomorphismChecks:
    def test_rooted_isomorphic_positive(self):
        g = random_connected(8, seed=4)
        h, perm = shuffled_copy(g, seed=9)
        assert rooted_isomorphic(g, 2, h, perm[2])

    def test_rooted_isomorphic_negative_wrong_root(self):
        g = random_connected(8, seed=4)
        h, perm = shuffled_copy(g, seed=9)
        # A wrong root almost surely mismatches on an asymmetric graph.
        wrong = perm[3] if perm[3] != perm[2] else perm[4]
        assert not rooted_isomorphic(g, 2, h, wrong)


class TestFindIsomorphism:
    def test_exhibits_mapping(self):
        g = random_connected(9, seed=6)
        h, perm = shuffled_copy(g, seed=21)
        mapping = find_isomorphism(g, 0, h, perm[0])
        assert mapping is not None
        for u in range(g.n):
            assert mapping[u] == perm[u]

    def test_none_for_mismatch(self):
        assert find_isomorphism(ring(6), 0, path(6), 0) is None
        assert find_isomorphism(ring(6), 0, ring(7), 0) is None

    def test_mapping_preserves_edges(self):
        g = clique(5)
        h = g.relabel([4, 3, 2, 1, 0])
        mapping = find_isomorphism(g, 0, h, 4)
        assert mapping is not None
        for u in range(5):
            for p in g.ports(u):
                v, q = g.traverse(u, p)
                hv, hq = h.traverse(mapping[u], p)
                assert (hv, hq) == (mapping[v], q)
