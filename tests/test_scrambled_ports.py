"""Theorems on graphs with randomized port assignments.

Port labels are adversarially arbitrary in the model (the two endpoints
of an edge may disagree); the canonical labelings most tests use are the
tidy special case.  These tests scramble every node's port permutation
and re-run the pipeline — any hidden reliance on orderly ports would
surface here.
"""

import pytest

from repro.byzantine import Adversary
from repro.core import solve_theorem1, solve_theorem3, solve_theorem4, solve_theorem6
from repro.graphs import (
    erdos_renyi,
    is_quotient_isomorphic,
    random_regular,
    ring,
    rooted_isomorphic,
    torus,
)
from repro.mapping import ExplorerMemo, plan_honest_run


class TestMappingOnScrambledPorts:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scrambled_ring_maps_correctly(self, seed):
        g = ring(9, seed=seed)
        ticks, m = plan_honest_run(g, 0, ExplorerMemo())
        assert rooted_isomorphic(g, 0, m, 0)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_scrambled_regular_maps_correctly(self, seed):
        g = random_regular(8, 3, seed=seed)
        _, m = plan_honest_run(g, 2, ExplorerMemo())
        assert rooted_isomorphic(g, 2, m, 0)


class TestTheoremsOnScrambledPorts:
    @pytest.mark.parametrize("seed", [1, 4])
    def test_theorem3_scrambled_ring(self, seed):
        g = ring(8, seed=seed)
        rep = solve_theorem3(g, f=3, adversary=Adversary("ghost_squatter", seed=2))
        assert rep.success, rep.violations

    @pytest.mark.parametrize("seed", [1, 4])
    def test_theorem4_scrambled_er(self, seed):
        g = erdos_renyi(9, 0.4, seed=seed)
        rep = solve_theorem4(g, f=2, adversary=Adversary("false_commander", seed=2))
        assert rep.success, rep.violations

    def test_theorem6_scrambled_torus(self):
        g = torus(3, 3, seed=5)
        rep = solve_theorem6(g, f=1, adversary=Adversary("impersonator", seed=2))
        assert rep.success, rep.violations

    def test_theorem1_if_scrambling_breaks_symmetry(self):
        """Scrambling a ring's ports usually destroys its view symmetry,
        promoting it into the Theorem 1 class — verify and use it."""
        for seed in range(1, 30):
            g = ring(9, seed=seed)
            if is_quotient_isomorphic(g):
                rep = solve_theorem1(g, f=8, adversary=Adversary("squatter", seed=1))
                assert rep.success, rep.violations
                return
        pytest.skip("no scrambling seed broke the ring's symmetry")
