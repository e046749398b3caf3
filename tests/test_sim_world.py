"""Tests for the synchronous simulator: sub-rounds, movement, messages."""

import copy
import dataclasses
import pickle

import pytest

from repro.errors import ProtocolViolation, SimulationError
from repro.graphs import PortLabeledGraph, ring
from repro.sim import (
    SETTLED,
    Move,
    Sleep,
    Stay,
    World,
    assign_ids,
    finish_report,
    id_space_upper_bound,
    validate_ids,
)
from repro.errors import ConfigurationError


def stay_forever(api):
    while True:
        yield Stay()


def one_move(port):
    def program(api):
        yield Move(port)
        while True:
            yield Stay()

    return program


class TestIds:
    def test_compact_assignment(self):
        assert assign_ids(4) == [1, 2, 3, 4]

    def test_seeded_assignment_distinct_in_range(self):
        ids = assign_ids(6, n_nodes=6, seed=7)
        assert len(set(ids)) == 6
        assert all(1 <= i <= 36 for i in ids)

    def test_upper_bound(self):
        assert id_space_upper_bound(10, 2.0) == 100
        with pytest.raises(ConfigurationError):
            id_space_upper_bound(10, 1.0)

    def test_validate_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            validate_ids([1, 1, 2], 10)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            validate_ids([1, 101], 10)

    def test_too_many_ids(self):
        with pytest.raises(ConfigurationError):
            assign_ids(200, n_nodes=10, c=2.0)


class TestRounds:
    def test_movement_is_simultaneous(self):
        """Two robots swapping along an edge must pass each other, both
        ending on the other side (the model's task (ii) semantics)."""
        g = ring(4)
        w = World(g)
        w.add_robot(1, 0, one_move(1))
        w.add_robot(2, 1, one_move(2))
        w.step()
        assert w.robots[1].node == 1
        assert w.robots[2].node == 0

    def test_arrival_port_reported(self):
        g = ring(5)
        w = World(g)
        w.add_robot(1, 0, one_move(1))
        w.step()
        assert w.robots[1].arrival_port == 2

    def test_sub_round_order_visibility(self):
        """A smaller-ID robot's record update is visible to a larger-ID
        robot in the same round (the paper's sub-round rule) but not vice
        versa."""
        g = ring(3)
        w = World(g)
        seen_by_2 = []
        seen_by_1 = []

        def small(api):
            api.set_flag(1)
            seen_by_1.append([v.flag for v in api.colocated()])
            yield Stay()

        def big(api):
            seen_by_2.append([v.flag for v in api.colocated()])
            yield Stay()

        w.add_robot(1, 0, small)
        w.add_robot(2, 0, big)
        w.step()
        assert seen_by_2 == [[1]]  # robot 2 sees robot 1's flag raised
        assert seen_by_1 == [[0]]  # robot 1 acted before robot 2

    def test_round_start_snapshot_frozen(self):
        g = ring(3)
        w = World(g)
        snapshots = []

        def small(api):
            api.set_flag(1)
            yield Stay()

        def big(api):
            snapshots.append([v.flag for v in api.colocated_at_round_start()])
            yield Stay()

        w.add_robot(1, 0, small)
        w.add_robot(2, 0, big)
        w.step()
        assert snapshots == [[0]]  # snapshot predates robot 1's flag

    def test_invalid_port_raises(self):
        g = ring(3)
        w = World(g)
        w.add_robot(1, 0, one_move(7))
        with pytest.raises(SimulationError, match="invalid port"):
            w.step()

    def test_settled_honest_cannot_move(self):
        g = ring(3)
        w = World(g)

        def cheat(api):
            api.settle()
            yield Move(1)

        w.add_robot(1, 0, cheat)
        with pytest.raises(ProtocolViolation):
            w.step()

    def test_bad_action_rejected(self):
        g = ring(3)

        class Nudge(Move):
            """Dispatch is on the exact action class: subclasses are
            not actions."""

        for action in ("north", Nudge(1)):
            w = World(g)

            def bad(api, _action=action):
                yield _action

            w.add_robot(1, 0, bad)
            with pytest.raises(SimulationError, match="expected Move or Stay"):
                w.step()

    def test_program_end_terminates_robot(self):
        g = ring(3)
        w = World(g)

        def ephemeral(api):
            yield Stay()

        w.add_robot(1, 0, ephemeral)
        w.step()
        w.step()
        assert w.robots[1].terminated

    def test_robots_at_index(self):
        g = ring(4)
        w = World(g)
        w.add_robot(1, 0, one_move(1))
        w.add_robot(2, 2, stay_forever)
        assert [r.true_id for r in w.robots_at(0)] == [1]
        w.step()
        assert [r.true_id for r in w.robots_at(1)] == [1]
        assert w.robots_at(0) == ()

    def test_duplicate_id_rejected(self):
        w = World(ring(3))
        w.add_robot(1, 0, stay_forever)
        with pytest.raises(SimulationError):
            w.add_robot(1, 1, stay_forever)

    def test_node_out_of_range_rejected(self):
        w = World(ring(3))
        with pytest.raises(SimulationError):
            w.add_robot(1, 9, stay_forever)

    def test_unknown_model_rejected(self):
        with pytest.raises(SimulationError):
            World(ring(3), model="chaotic")


class TestMoveAction:
    def test_move_is_shared_per_port(self):
        assert Move(3) is Move(3)
        assert Move(port=3) is Move(3)
        assert Move(3) is not Move(4)

    def test_value_semantics_unchanged(self):
        assert Move(3) == Move(3) and Move(3) != Move(4)
        assert hash(Move(3)) == hash(Move(3))
        assert {Move(3), Move(3), Move(4)} == {Move(3), Move(4)}
        assert repr(Move(3)) == "Move(port=3)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            Move(3).port = 4
        assert Move(3).port == 3

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        back = pickle.loads(pickle.dumps(Move(3), protocol=protocol))
        assert back == Move(3) and type(back) is Move

    def test_copy_and_replace_round_trip(self):
        assert copy.copy(Move(3)) == Move(3)
        assert copy.deepcopy(Move(3)) == Move(3)
        assert copy.deepcopy([Move(2), Move(2)]) == [Move(2), Move(2)]
        assert dataclasses.replace(Move(3), port=4) == Move(4)
        assert Move(3).port == 3

    def test_subclass_and_non_int_ports_are_not_shared(self):
        nudge = _Nudge(3)
        assert type(nudge) is _Nudge and nudge.port == 3
        assert nudge is not Move(3) and nudge is not _Nudge(3)
        assert nudge != Move(3)  # dataclass equality compares classes
        back = pickle.loads(pickle.dumps(nudge))
        assert type(back) is _Nudge and back == nudge
        assert Move(True) is not Move(1) and Move(True) == Move(1)


class _Nudge(Move):
    """A ``Move`` subclass (module level, so pickle can find it)."""


class TestMessaging:
    def test_same_round_visibility_by_order(self):
        g = ring(3)
        w = World(g)
        heard = []

        def talker(api):
            api.say("ping")
            yield Stay()

        def listener(api):
            heard.append(api.messages())
            yield Stay()

        w.add_robot(1, 0, talker)
        w.add_robot(2, 0, listener)
        w.step()
        assert heard == [[(1, "ping")]]

    def test_prev_round_board(self):
        g = ring(3)
        w = World(g)
        heard = []

        def talker(api):
            api.say("ping")
            yield Stay()
            yield Stay()

        def listener(api):
            yield Stay()
            heard.append(api.messages_prev())
            yield Stay()

        w.add_robot(2, 0, talker)   # larger ID: posts after listener acts
        w.add_robot(1, 0, listener)
        w.step()
        w.step()
        assert heard == [[(2, "ping")]]

    def test_boards_are_per_node(self):
        g = ring(4)
        w = World(g)
        heard = []

        def talker(api):
            api.say("here")
            yield Stay()

        def far_listener(api):
            heard.append(api.messages())
            yield Stay()

        w.add_robot(1, 0, talker)
        w.add_robot(2, 2, far_listener)
        w.step()
        assert heard == [[]]


class TestSleep:
    def test_sleep_skips_resumes(self):
        g = ring(3)
        w = World(g)
        wakes = []

        def sleeper(api):
            wakes.append(api.round)
            yield Sleep(5)
            wakes.append(api.round)
            yield Stay()

        w.add_robot(1, 0, sleeper)
        w.run(max_rounds=10)
        assert wakes == [0, 5]

    def test_all_asleep_fast_forward(self):
        g = ring(3)
        w = World(g)

        def sleeper(api):
            yield Sleep(100)
            yield Stay()

        w.add_robot(1, 0, sleeper)
        w.add_robot(2, 1, sleeper)
        w.step()  # both go to sleep; fast-forward fires
        assert w.round == 100

    def test_partial_sleep_no_fast_forward(self):
        g = ring(3)
        w = World(g)

        def sleeper(api):
            yield Sleep(50)
            yield Stay()

        w.add_robot(1, 0, sleeper)
        w.add_robot(2, 1, stay_forever)
        w.step()
        assert w.round == 1  # an awake robot pins the clock

    def test_sleeping_rounds_are_not_activations(self):
        """``activations`` counts awake resumes, not live-robot-rounds: a
        robot sleeping k rounds beside a staying robot adds only the
        rounds it was resumed in."""
        g = ring(3)
        w = World(g)
        k = 10

        def sleeper(api):
            yield Sleep(k)  # resumed in round 0
            yield Stay()  # round k
            yield Stay()  # round k + 1; round k + 2 ends the program

        w.add_robot(1, 0, sleeper)
        w.add_robot(2, 1, stay_forever)
        rounds = k + 5
        for _ in range(rounds):
            w.step()
        assert w.round == rounds
        assert w.robots[1].terminated
        # The stayer is resumed every round, the sleeper in rounds 0, k,
        # k + 1 and k + 2 -- although it was live for k + 3 rounds.
        assert w.activations == rounds + 4

    def test_sleep_invalid(self):
        g = ring(3)
        w = World(g)

        def bad(api):
            yield Sleep(0)

        w.add_robot(1, 0, bad)
        with pytest.raises(SimulationError):
            w.step()


class TestAccounting:
    def test_charges_accumulate(self):
        w = World(ring(3))
        w.charge("phase_a", 100)
        w.charge("phase_b", 20)
        assert w.charged_rounds == 120
        assert w.total_rounds == 120
        assert w.charged == [("phase_a", 100), ("phase_b", 20)]

    def test_negative_charge_rejected(self):
        w = World(ring(3))
        with pytest.raises(SimulationError):
            w.charge("oops", -1)

    def test_teleport(self):
        w = World(ring(5))
        w.add_robot(1, 0, stay_forever)
        w.teleport(1, 3)
        assert w.robots[1].node == 3
        assert w.robots[1].arrival_port is None
        assert [r.true_id for r in w.robots_at(3)] == [1]

    def test_run_respects_max_rounds(self):
        w = World(ring(3))
        w.add_robot(1, 0, stay_forever)
        assert not w.run(max_rounds=7)
        assert w.round == 7


class TestFinishReport:
    def test_success_requires_settle_and_uniqueness(self):
        g = ring(4)
        w = World(g)

        def settle_here(api):
            api.settle()
            return
            yield  # pragma: no cover

        w.add_robot(1, 0, settle_here)
        w.add_robot(2, 1, settle_here)
        w.run(max_rounds=5)
        rep = finish_report(w)
        assert rep.success
        assert rep.settled == {1: 0, 2: 1}

    def test_collision_reported(self):
        g = ring(4)
        w = World(g)

        def settle_here(api):
            api.settle()
            return
            yield  # pragma: no cover

        w.add_robot(1, 0, settle_here)
        w.add_robot(2, 0, settle_here)
        w.run(max_rounds=5)
        rep = finish_report(w)
        assert not rep.success
        assert any("hosts 2 honest settlers" in v for v in rep.violations)

    def test_honest_cap_relaxes_collisions(self):
        g = ring(4)
        w = World(g)

        def settle_here(api):
            api.settle()
            return
            yield  # pragma: no cover

        w.add_robot(1, 0, settle_here)
        w.add_robot(2, 0, settle_here)
        w.run(max_rounds=5)
        assert finish_report(w, honest_cap=2).success

    def test_unsettled_reported(self):
        w = World(ring(3))

        def quitter(api):
            return
            yield  # pragma: no cover

        w.add_robot(1, 0, quitter)
        w.run(max_rounds=3)
        rep = finish_report(w)
        assert not rep.success
        assert any("never settled" in v for v in rep.violations)

    def test_byzantine_excluded_from_validation(self):
        g = ring(4)
        w = World(g)

        def settle_here(api):
            api.settle()
            return
            yield  # pragma: no cover

        def byz(api):
            while True:
                yield Stay()

        w.add_robot(1, 0, settle_here)
        w.add_robot(2, 0, byz, byzantine=True)
        w.run(max_rounds=5)
        assert finish_report(w).success
