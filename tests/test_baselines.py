"""Tests for the baseline algorithms (DFS, ring prior work, random)."""

import pytest

from repro.baselines import (
    dfs_rounds_bound,
    solve_dfs_baseline,
    solve_random_baseline,
    solve_ring_dispersion,
)
from repro.byzantine import WEAK_STRATEGIES, Adversary
from repro.errors import ConfigurationError, GraphStructureError
from repro.graphs import clique, path, random_connected, ring, star, torus


class TestDfsBaselineHonest:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_disperses_n_robots(self, seed):
        g = random_connected(8, seed=seed)
        rep = solve_dfs_baseline(g)
        assert rep.success, rep.violations
        assert sorted(rep.settled.values()) == list(range(8))

    def test_k_less_than_n(self, rc8):
        rep = solve_dfs_baseline(rc8, k=5)
        assert rep.success
        assert len(set(rep.settled.values())) == 5

    def test_capacity_k_over_n(self, rc8):
        rep = solve_dfs_baseline(rc8, k=20, cap=3)
        assert rep.success, rep.violations
        from repro.analysis import settlement_histogram

        hist = settlement_histogram(rep.settled)
        assert max(len(v) for v in hist.values()) <= 3

    def test_round_bound(self, rc8):
        rep = solve_dfs_baseline(rc8)
        assert rep.rounds_simulated <= dfs_rounds_bound(rc8.n, rc8.m)

    def test_rounds_within_six_m(self):
        """The O(m) claim of Kshemkalyani & Ali (arXiv:1805.12242) with its
        constant: 3 rounds per DFS step and at most 2m steps (each edge
        walked forth and back) give rounds_simulated <= 6m."""
        graphs = [random_connected(n, seed=s) for n in range(4, 25) for s in range(6)]
        graphs += [family(n) for family in (ring, path, star) for n in range(4, 19)]
        graphs += [clique(n) for n in range(4, 16)]
        graphs += [torus(3, 3), torus(4, 4)]
        assert len(graphs) == 185
        over = []
        for g in graphs:
            rep = solve_dfs_baseline(g)
            assert rep.success, rep.violations
            if rep.rounds_simulated > 6 * g.m:
                over.append((g, rep.rounds_simulated, 6 * g.m))
        assert over == []

    def test_works_on_symmetric_graphs(self):
        rep = solve_dfs_baseline(torus(3, 3))
        assert rep.success

    def test_disconnected_rejected(self):
        from repro.graphs import PortLabeledGraph

        g = PortLabeledGraph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(ConfigurationError):
            solve_dfs_baseline(g)


class TestDfsBaselineFragility:
    """The motivation benchmark: classic dispersion has zero Byzantine
    tolerance — single adversaries break it."""

    def test_squatter_breaks_it(self, rc8):
        rep = solve_dfs_baseline(rc8, f=2, adversary=Adversary("squatter"))
        assert not rep.success

    def test_lying_landmark_breaks_it(self, rc8):
        """A Byzantine robot that poses as a settled landmark and answers
        with a non-existent port strands every visitor — the classic
        algorithm trusts guidance blindly.  (Amusingly, a liar answering a
        *valid* wrong port merely rewires the DFS and the group still
        disperses; the trust failure needs only one unanswerable reply.)"""

        def lying_landmark(api, rng):
            from repro.sim.robot import Stay

            api.set_state("Settled")
            while True:
                api.say(("dfs", 99))
                yield Stay()

        rep = solve_dfs_baseline(rc8, f=1, adversary=Adversary(lying_landmark))
        assert not rep.success
        assert any("never settled" in v for v in rep.violations)

    def test_paper_algorithm_survives_same_adversary(self, rc8):
        """Same graph, same f, same strategy: Theorem 3 succeeds where
        the baseline fails — the headline comparison."""
        from repro.core import solve_theorem3

        base = solve_dfs_baseline(rc8, f=2, adversary=Adversary("squatter"))
        ours = solve_theorem3(rc8, f=2, adversary=Adversary("squatter"))
        assert not base.success and ours.success


class TestRingPriorWork:
    def test_all_honest(self):
        rep = solve_ring_dispersion(7, f=0)
        assert rep.success

    def test_max_tolerance(self):
        rep = solve_ring_dispersion(7, f=6, adversary=Adversary("ghost_squatter"))
        assert rep.success

    @pytest.mark.parametrize("strategy", ["squatter", "flag_spammer", "idle", "random_walker"])
    def test_strategies_at_half(self, strategy):
        rep = solve_ring_dispersion(9, f=4, adversary=Adversary(strategy, seed=3))
        assert rep.success, rep.violations

    def test_linear_rounds(self):
        """The prior work's claim (Molla, Mondal & Moses, arXiv:2004.11439):
        O(n) rounds with up to n - 1 weak Byzantine robots.  Here it is at
        most n rounds: the canonical ring's DFS tree is a path, so the
        first n - 1 tour steps are all first visits, and every honest
        robot settles within them (measured worst case over n = 3..20:
        exactly n)."""
        for strategy in WEAK_STRATEGIES:
            for n in (3, 4, 5, 8, 13, 20):
                for f in (n // 2, n - 1):
                    for start in ("arbitrary", "gathered"):
                        for seed in (0, 1):
                            rep = solve_ring_dispersion(
                                n, f=f, adversary=Adversary(strategy, seed=seed),
                                start=start, seed=seed,
                            )
                            case = (strategy, n, f, start, seed)
                            assert rep.success, (case, rep.violations)
                            assert rep.rounds_simulated <= n, (case, rep.rounds_simulated)

    def test_gathered_start(self):
        rep = solve_ring_dispersion(8, f=3, adversary=Adversary("squatter"), start="gathered")
        assert rep.success

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            solve_ring_dispersion(2)
        with pytest.raises(ConfigurationError):
            solve_ring_dispersion(5, f=5)


class TestRandomBaseline:
    def test_honest_only_succeeds_eventually(self, rc8):
        rep = solve_random_baseline(rc8, f=0, seed=1)
        assert rep.success

    def test_clique_easy_case(self):
        rep = solve_random_baseline(clique(6), f=0, seed=2)
        assert rep.success

    def test_squatters_permanently_deny_their_nodes(self, rc8):
        """Without the paper's blacklist there is no recourse against a
        fake settler: the squatted node is lost to honest robots forever.
        (An honest finding: since n−f robots always fit in the n−f
        remaining nodes, denial alone costs nodes and time, not
        completion — the paper's machinery is about *guarantees*.)"""
        rep = solve_random_baseline(
            rc8, f=3, adversary=Adversary("squatter"), start="gathered", seed=1
        )
        # All three squatters sit on the gather node 0: no honest settles there.
        assert 0 not in set(rep.settled.values())
        clean = solve_random_baseline(rc8, f=0, start="gathered", seed=1)
        assert 0 in set(clean.settled.values())
