"""Tests for the adversary strategy zoo and the Adversary controller."""

import numpy as np
import pytest

from repro.byzantine import (
    STRATEGIES,
    STRONG_STRATEGIES,
    WEAK_STRATEGIES,
    Adversary,
    get_strategy,
    sleeper,
)
from repro.byzantine.adversary import choose_byzantine_ids
from repro.byzantine.strategies import _port_draws
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import random_connected, ring
from repro.sim import SETTLED, Stay, World


def drive(strategy_name, model="weak", rounds=12, with_honest=True):
    g = random_connected(7, seed=2)
    w = World(g, model=model)
    adv = Adversary(strategy_name, seed=5)
    w.add_robot(1, 0, adv.program_factory(1), byzantine=True)
    if with_honest:
        def idle_honest(api):
            while True:
                yield Stay()

        w.add_robot(5, 0, idle_honest)
    w.run(max_rounds=rounds)
    return w


class TestStrategyZoo:
    @pytest.mark.parametrize("name", WEAK_STRATEGIES)
    def test_weak_strategies_run_in_weak_model(self, name):
        w = drive(name, model="weak")
        assert w.round > 0  # no crash

    @pytest.mark.parametrize("name", STRONG_STRATEGIES)
    def test_strong_strategies_run_in_strong_model(self, name):
        w = drive(name, model="strong")
        assert w.round > 0

    def test_weak_model_blocks_id_faking(self):
        with pytest.raises(SimulationError, match="strong"):
            drive("impersonator", model="weak")

    def test_squatter_claims_settled_and_stays(self):
        w = drive("squatter")
        r = w.robots[1]
        assert r.state == SETTLED
        assert r.node == 0
        assert r.moves_made == 0

    def test_ghost_squatter_moves_while_claiming_settled(self):
        w = drive("ghost_squatter", rounds=10)
        r = w.robots[1]
        assert r.state == SETTLED
        assert r.moves_made >= 1

    def test_flag_spammer_raises_flag(self):
        w = drive("flag_spammer", rounds=3)
        assert w.robots[1].flag == 1

    def test_crash_terminates_immediately(self):
        w = drive("crash", rounds=3)
        assert w.robots[1].terminated

    def test_random_walker_moves(self):
        w = drive("random_walker", rounds=15)
        assert w.robots[1].moves_made >= 1

    def test_stalker_reaches_target(self):
        g = ring(8)
        w = World(g)
        adv = Adversary("stalker", seed=1)
        w.add_robot(9, 4, adv.program_factory(9), byzantine=True)

        def idle_honest(api):
            while True:
                yield Stay()

        w.add_robot(1, 0, idle_honest)  # smallest honest: the target
        w.run(max_rounds=10)
        assert w.robots[9].node == 0  # caught up with the target

    @pytest.mark.parametrize("claim", ["x", None, True, 2.0])
    def test_claimed_id_must_be_an_int(self, claim):
        """Claimed IDs order the sub-rounds; a claim that is not an int
        is refused where it is made, not later in the engine's sort."""
        w = World(random_connected(7, seed=2), model="strong")

        def liar(api):
            api.set_claimed_id(claim)
            yield Stay()

        w.add_robot(1, 0, liar, byzantine=True)
        w.add_robot(5, 0, lambda api: iter([Stay(), Stay()]))
        with pytest.raises(SimulationError, match="claimed ID must be an int"):
            w.run(max_rounds=3)

    def test_impersonator_steals_honest_id(self):
        w = drive("impersonator", model="strong", rounds=3)
        assert w.robots[1].claimed_id == 5  # the smallest honest ID

    def test_id_cycler_changes_claims(self):
        g = random_connected(7, seed=2)
        w = World(g, model="strong")
        adv = Adversary("id_cycler", seed=5)
        w.add_robot(1, 0, adv.program_factory(1), byzantine=True)
        for rid in (4, 5, 6):  # material for the cycle

            def idle_honest(api):
                while True:
                    yield Stay()

            w.add_robot(rid, 1, idle_honest)
        claims = set()
        for _ in range(6):
            w.step()
            claims.add(w.robots[1].claimed_id)
        assert len(claims) >= 3

    def test_false_commander_posts_commands(self):
        g = random_connected(7, seed=2)
        w = World(g)
        adv = Adversary("false_commander", seed=5)
        w.add_robot(1, 0, adv.program_factory(1), byzantine=True)
        w.step()
        assert any(
            p[0] == "cmd" for _, p in w.board_previous.get(0, [])
        )

    def test_sleeper_combinator(self):
        inner = get_strategy("squatter")
        s = sleeper(3, inner)
        g = ring(5)
        w = World(g)
        w.add_robot(1, 0, lambda api: s(api, np.random.default_rng(0)), byzantine=True)
        w.step()
        assert w.robots[1].state != SETTLED  # still dormant
        for _ in range(4):
            w.step()
        assert w.robots[1].state == SETTLED

    def test_sleeper_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            sleeper(-1, get_strategy("idle"))

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            get_strategy("teleporter")

    def test_registry_covers_lists(self):
        for name in WEAK_STRATEGIES + STRONG_STRATEGIES:
            assert name in STRATEGIES


class TestAdversaryController:
    def test_choose_lowest(self):
        assert choose_byzantine_ids([5, 1, 9, 3], 2, "lowest") == [1, 3]

    def test_choose_highest(self):
        assert choose_byzantine_ids([5, 1, 9, 3], 2, "highest") == [5, 9]

    def test_choose_random_deterministic(self):
        a = choose_byzantine_ids(range(10), 4, "random", seed=3)
        b = choose_byzantine_ids(range(10), 4, "random", seed=3)
        assert a == b and len(a) == 4

    def test_choose_random_default_is_deterministic(self):
        """Regression: the old `seed=None` default drew from OS entropy,
        so "random placement" sweeps were unreproducible (and could
        never be cached content-addressed).  An unseeded call is pinned
        to seed 0."""
        a = choose_byzantine_ids(range(20), 5, "random")
        assert a == choose_byzantine_ids(range(20), 5, "random")
        assert a == choose_byzantine_ids(range(20), 5, "random", seed=None)
        assert a == choose_byzantine_ids(range(20), 5, "random", seed=0)

    def test_adversary_threads_seed_into_placement(self):
        """Regression: Adversary(seed=...) never reached the placement
        RNG; choose_ids must derive placement from the adversary seed."""
        adv3 = Adversary("squatter", seed=3)
        assert adv3.seed == 3
        picked = adv3.choose_ids(range(10), 4, placement="random")
        assert picked == choose_byzantine_ids(range(10), 4, "random", seed=3)
        assert picked != Adversary("squatter", seed=4).choose_ids(
            range(10), 4, placement="random"
        )
        # deterministic placements are seed-independent
        assert adv3.choose_ids([5, 1, 9, 3], 2) == [1, 3]

    def test_build_population_uses_adversary_seed_for_placement(self):
        """End-to-end: two runs with the same adversary seed corrupt the
        same IDs under random placement, regardless of the run seed."""
        from repro.core._setup import build_population

        g = ring(9)
        pops = [
            build_population(
                g, f=3, start="gathered", byz_placement="random",
                adversary=Adversary("squatter", seed=7), seed=run_seed,
            )
            for run_seed in (0, 1)
        ]
        assert pops[0].byz_ids == pops[1].byz_ids
        different = build_population(
            g, f=3, start="gathered", byz_placement="random",
            adversary=Adversary("squatter", seed=8), seed=0,
        )
        assert different.byz_ids != pops[0].byz_ids

    def test_theorem2_charge_preview_matches_actual_placement(self):
        """Regression: the charge-preview population must resolve the
        same adversary as the solver's, or the charged |Λgood| is
        computed over IDs that are not the ones actually honest."""
        from repro.core._setup import build_population
        from repro.core.general_graphs import solve_theorem2
        from repro.gathering.oracle import weak_gathering_rounds

        g = random_connected(8, seed=5)
        # adversary seed 1 != run seed 0 picks a different corruption set
        # than run-seed placement would (checked below), so a preview
        # that ignores the adversary charges the wrong |Λgood|.
        adv = Adversary("idle", seed=1)
        pop = build_population(
            g, f=3, start=0, adversary=adv, byz_placement="random", seed=0
        )
        run_seed_pop = build_population(g, f=3, start=0, byz_placement="random", seed=0)
        expected = weak_gathering_rounds(g, pop.honest_ids)
        assert expected != weak_gathering_rounds(g, run_seed_pop.honest_ids)
        report = solve_theorem2(
            g, f=3, adversary=adv, seed=0, byz_placement="random"
        )
        assert dict(report.phases)["gathering_dpp_weak"] == expected

    def test_adversary_descriptor(self):
        assert Adversary("squatter", seed=3).descriptor() == \
            ["adversary", "squatter", 3]
        assert Adversary({3: "idle", 1: "squatter"}, seed=0).descriptor() == \
            ["adversary", [[1, "squatter"], [3, "idle"]], 0]

    def test_choose_zero(self):
        assert choose_byzantine_ids([1, 2], 0, "highest") == []

    def test_choose_out_of_range(self):
        with pytest.raises(ConfigurationError):
            choose_byzantine_ids([1, 2], 3, "lowest")

    def test_heterogeneous_assignment(self):
        adv = Adversary({1: "squatter", 2: "crash"}, seed=0)
        g = ring(5)
        w = World(g)
        w.add_robot(1, 0, adv.program_factory(1), byzantine=True)
        w.add_robot(2, 1, adv.program_factory(2), byzantine=True)
        for _ in range(3):  # run() exits instantly with no honest robots
            w.step()
        assert w.robots[1].state == SETTLED
        assert w.robots[2].terminated

    def test_describe(self):
        assert Adversary("squatter").describe() == "squatter"
        assert "1:squatter" in Adversary({1: "squatter"}).describe()

    def test_callable_strategy(self):
        def custom(api, rng):
            while True:
                yield Stay()

        adv = Adversary(custom)
        assert adv.describe() == "custom"
        g = ring(4)
        w = World(g)
        w.add_robot(1, 0, adv.program_factory(1), byzantine=True)
        w.run(max_rounds=2)
        assert w.robots[1].moves_made == 0


#: Degrees a port draw sees, plus numpy's edge cases: 1 (no draw at all)
#: and bounds whose Lemire rejection rate is near one half.
_DRAW_BOUNDS = [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 2**31 + 1, 3 * 2**30]


class TestPortDraws:
    """``_port_draws`` must equal numpy's scalar draw, value for value."""

    @staticmethod
    def _bounds(seed, count=400):
        return [_DRAW_BOUNDS[(seed + 7 * i) % len(_DRAW_BOUNDS)] for i in range(count)]

    def test_matches_numpy_on_pcg64(self):
        for seed in range(100):
            reference = np.random.default_rng((seed, 5))
            draw = _port_draws(np.random.default_rng((seed, 5)))
            for d in self._bounds(seed):
                assert draw(d) == int(reference.integers(1, d + 1)), (seed, d)

    def test_honours_a_buffered_half_word(self):
        """A generator holding half of a 64-bit word serves it first."""
        for seed in range(20):
            reference = np.random.default_rng(seed)
            mine = np.random.default_rng(seed)
            for rng in (reference, mine):
                rng.integers(0, 2**32, dtype=np.uint32)  # buffers the high half
            assert mine.bit_generator.state["has_uint32"] == 1
            draw = _port_draws(mine)
            for d in self._bounds(seed, count=50):
                assert draw(d) == int(reference.integers(1, d + 1)), (seed, d)

    def test_other_bit_generators_fall_back_to_numpy(self):
        reference = np.random.Generator(np.random.MT19937(1))
        draw = _port_draws(np.random.Generator(np.random.MT19937(1)))
        for d in self._bounds(1):
            assert draw(d) == int(reference.integers(1, d + 1)), d
