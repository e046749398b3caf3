"""End-to-end tests for Theorem 1 (quotient-graph algorithm, f <= n-1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.byzantine import WEAK_STRATEGIES, Adversary
from repro.core import solve_theorem1, theorem1_round_bound
from repro.core.find_map import find_map_rounds, private_quotient_map
from repro.errors import ConfigurationError
from repro.graphs import (
    is_quotient_isomorphic,
    random_connected,
    ring,
    rooted_isomorphic,
    star,
)
import numpy as np


class TestFindMap:
    def test_private_map_isomorphic_and_rooted(self):
        g = random_connected(9, seed=3)
        m, root = private_quotient_map(g, 4, np.random.default_rng(0))
        assert rooted_isomorphic(g, 4, m, root)

    def test_private_relabeling_differs_between_robots(self):
        g = random_connected(9, seed=3)
        m1, r1 = private_quotient_map(g, 4, np.random.default_rng(1))
        m2, r2 = private_quotient_map(g, 4, np.random.default_rng(2))
        # Same graph up to iso but (almost surely) different labels.
        assert rooted_isomorphic(m1, r1, m2, r2)

    def test_rejected_on_collapsed_quotient(self):
        with pytest.raises(ConfigurationError):
            private_quotient_map(ring(6), 0, np.random.default_rng(0))

    def test_round_charge_polynomial(self):
        assert find_map_rounds(8, 12) == 8**3 * 3


class TestDriverValidation:
    def test_rejects_collapsed_quotient_graph(self):
        with pytest.raises(ConfigurationError, match="quotient"):
            solve_theorem1(ring(6), f=0)

    def test_rejects_f_out_of_range(self):
        g = random_connected(8, seed=5)
        with pytest.raises(ConfigurationError):
            solve_theorem1(g, f=8)

    def test_star_is_admissible(self):
        # Port labels make star views distinct (see views tests).
        rep = solve_theorem1(star(6), f=2, adversary=Adversary("squatter"))
        assert rep.success


class TestEndToEnd:
    def test_all_honest_arbitrary(self, rc10):
        rep = solve_theorem1(rc10, f=0, seed=3)
        assert rep.success
        assert sorted(rep.settled.values()) == list(range(10))
        assert rep.rounds_charged == find_map_rounds(10, rc10.m)

    def test_max_byzantine(self, rc10):
        rep = solve_theorem1(rc10, f=9, adversary=Adversary("ghost_squatter"))
        assert rep.success

    @pytest.mark.parametrize("strategy", WEAK_STRATEGIES)
    def test_strategy_zoo_at_half(self, rc10, strategy):
        rep = solve_theorem1(
            rc10, f=5, adversary=Adversary(strategy, seed=7), seed=2
        )
        assert rep.success, rep.violations

    @pytest.mark.parametrize("start", ["arbitrary", "gathered", "spread"])
    def test_start_configurations(self, rc10, start):
        rep = solve_theorem1(rc10, f=3, adversary=Adversary("squatter"), start=start)
        assert rep.success

    def test_round_bound_respected(self, rc10):
        rep = solve_theorem1(rc10, f=4, adversary=Adversary("flag_spammer"))
        assert rep.rounds_total <= theorem1_round_bound(10, rc10.m) + 8

    def test_deterministic_under_seed(self, rc10):
        a = solve_theorem1(rc10, f=3, adversary=Adversary("random_walker", seed=5), seed=9)
        b = solve_theorem1(rc10, f=3, adversary=Adversary("random_walker", seed=5), seed=9)
        assert a.settled == b.settled
        assert a.rounds_simulated == b.rounds_simulated

    @given(
        seed=st.integers(0, 200),
        f=st.integers(0, 8),
        strategy=st.sampled_from(WEAK_STRATEGIES),
    )
    @settings(max_examples=30)
    def test_property_always_disperses(self, seed, f, strategy):
        for offset in range(30):
            g = random_connected(9, seed=seed + 999 * offset)
            if is_quotient_isomorphic(g):
                break
        else:
            pytest.skip("no view-distinct sample")
        rep = solve_theorem1(g, f=f, adversary=Adversary(strategy, seed=seed), seed=seed)
        assert rep.success, rep.violations
