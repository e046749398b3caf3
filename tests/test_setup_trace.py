"""Tests for driver plumbing (placements, populations) and the trace."""

import numpy as np
import pytest

from repro.byzantine import Adversary
from repro.core._setup import Population, build_population, make_placement, uniform_starts
from repro.errors import ConfigurationError
from repro.graphs import ring
from repro.sim import Trace, World, Stay


class TestMakePlacement:
    def test_gathered_default_node(self):
        g = ring(5)
        p = make_placement(g, [1, 2, 3], "gathered")
        assert p == {1: 0, 2: 0, 3: 0}

    def test_int_means_gather_node(self):
        g = ring(5)
        p = make_placement(g, [1, 2], 3)
        assert p == {1: 3, 2: 3}

    def test_int_out_of_range(self):
        with pytest.raises(ConfigurationError):
            make_placement(ring(5), [1], 9)

    def test_arbitrary_seeded(self):
        g = ring(5)
        a = make_placement(g, [1, 2, 3], "arbitrary", seed=4)
        b = make_placement(g, [1, 2, 3], "arbitrary", seed=4)
        assert a == b
        assert all(0 <= v < 5 for v in a.values())

    def test_spread_distinct(self):
        g = ring(5)
        p = make_placement(g, [7, 3, 9], "spread")
        assert sorted(p.values()) == [0, 1, 2]
        assert p[3] == 0  # sorted IDs get nodes in order

    def test_spread_too_many(self):
        with pytest.raises(ConfigurationError):
            make_placement(ring(3), [1, 2, 3, 4], "spread")

    def test_explicit_dict_validated(self):
        g = ring(5)
        p = make_placement(g, [1, 2], {1: 4, 2: 2})
        assert p == {1: 4, 2: 2}
        with pytest.raises(ConfigurationError, match="out of range"):
            make_placement(g, [1], {1: 7})
        with pytest.raises(ConfigurationError, match="missing"):
            make_placement(g, [1, 2], {1: 0})

    def test_unknown_spec(self):
        with pytest.raises(ConfigurationError):
            make_placement(ring(5), [1], "everywhere")


class TestUniformStarts:
    def test_equals_scalar_draws_and_leaves_the_same_state(self):
        """One array draw is ``count`` scalar ``integers(0, n)`` draws:
        the same nodes, and the generator left in the same state, so the
        next draw agrees too.  A numpy release that breaks this fails
        here, not in a pinned record digest."""
        for seed in range(1000):
            array_rng = np.random.default_rng(seed)
            scalar_rng = np.random.default_rng(seed)
            for n in range(2, 34):
                nodes = uniform_starts(array_rng, n, n)
                assert nodes.tolist() == [int(scalar_rng.integers(0, n)) for _ in range(n)]
                assert array_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_arbitrary_placement_draws_through_it(self):
        g = ring(7)
        nodes = uniform_starts(np.random.default_rng(3), 7, 4).tolist()
        assert make_placement(g, [5, 2, 9, 1], "arbitrary", seed=3) == dict(
            zip([5, 2, 9, 1], nodes))


class TestBuildPopulation:
    def test_default_n_robots_is_n(self):
        g = ring(6)
        pop = build_population(g, f=2)
        assert pop.ids == [1, 2, 3, 4, 5, 6]
        assert pop.byz_ids == [1, 2]
        assert pop.honest_ids == [3, 4, 5, 6]
        assert pop.f == 2

    def test_explicit_k(self):
        g = ring(6)
        pop = build_population(g, f=1, n_robots=4)
        assert len(pop.ids) == 4

    def test_byz_placement_highest(self):
        g = ring(6)
        pop = build_population(g, f=2, byz_placement="highest")
        assert pop.byz_ids == [5, 6]

    def test_adversary_default(self):
        pop = build_population(ring(5), f=1)
        assert isinstance(pop.adversary, Adversary)


class TestTrace:
    def test_counters_without_events(self):
        t = Trace(keep_events=False)
        t.record(1, "move", robot=1)
        t.record(2, "move", robot=2)
        assert t.count("move") == 2
        assert len(t) == 0
        assert list(t.of_kind("move")) == []

    def test_events_kept(self):
        t = Trace(keep_events=True)
        t.record(1, "settle", robot=3, node=0)
        t.record(5, "settle", robot=4, node=1)
        t.record(2, "move", robot=3)
        assert t.count("settle") == 2
        settles = list(t.of_kind("settle"))
        assert [e.round for e in settles] == [1, 5]
        assert t.last("settle").data["robot"] == 4
        assert t.last("nothing") is None

    def test_world_trace_records_moves_and_settles(self):
        from repro.sim import Move

        g = ring(4)
        w = World(g, keep_trace=True)

        def program(api):
            yield Move(1)
            api.settle()
            return
            yield  # pragma: no cover

        w.add_robot(1, 0, program)
        w.run(max_rounds=4)
        assert w.trace.count("move") == 1
        assert w.trace.count("settle") == 1
        move = w.trace.last("move")
        assert move.data["src"] == 0 and move.data["dst"] == 1
