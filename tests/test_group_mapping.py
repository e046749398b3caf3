"""Tests for group-mode map finding (Sections 3.2, 3.3, 4)."""

import pytest

from repro.byzantine import Adversary
from repro.errors import ConfigurationError
from repro.graphs import rooted_isomorphic
from repro.mapping import (
    ExplorerMemo,
    build_group_plan,
    group_phase_program,
    group_plan_rounds,
    plan_honest_run,
    run_slot_rounds,
)
from repro.sim import World


class TestPlanConstruction:
    def test_three_groups_structure(self):
        roster = list(range(1, 10))  # k = 9
        plan = build_group_plan(roster, "three_groups", 0, 50, 9)
        assert len(plan.runs) == 3
        # Smallest IDs form group A = agents of run 0.
        assert plan.runs[0].agent_ids == frozenset({1, 2, 3})
        assert plan.runs[0].token_ids == frozenset(range(4, 10))
        assert plan.runs[1].agent_ids == frozenset({4, 5, 6})
        assert plan.runs[2].agent_ids == frozenset(range(7, 10))
        # Thresholds per the paper: ⌊k/6⌋+1 commands, ⌊k/3⌋+1 presence.
        assert plan.runs[0].cmd_threshold == 2
        assert plan.runs[0].presence_threshold == 4

    def test_three_groups_runs_are_sequential(self):
        plan = build_group_plan(range(1, 10), "three_groups", 10, 50, 9)
        slot = run_slot_rounds(50, exchange=True)
        starts = [r.start_round for r in plan.runs]
        assert starts == [10, 10 + slot, 10 + 2 * slot]
        assert plan.end_round == 10 + 3 * slot

    def test_two_groups_majority_thresholds(self):
        plan = build_group_plan(range(1, 10), "two_groups_majority", 0, 50, 9)
        (run,) = plan.runs
        assert run.agent_ids == frozenset({1, 2, 3, 4})
        assert run.token_ids == frozenset(range(5, 10))
        assert run.cmd_threshold == 3  # |A|//2+1
        assert run.presence_threshold == 3  # |B|//2+1

    def test_two_groups_strong_thresholds(self):
        plan = build_group_plan(range(1, 13), "two_groups_strong", 0, 50, 12)
        (run,) = plan.runs
        assert run.cmd_threshold == 3  # ⌊n/4⌋
        assert run.presence_threshold == 3

    def test_every_robot_has_a_role_each_run(self):
        plan = build_group_plan(range(1, 10), "three_groups", 0, 50, 9)
        for run in plan.runs:
            assert run.agent_ids | run.token_ids == set(range(1, 10))
            assert not (run.agent_ids & run.token_ids)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            build_group_plan(range(1, 10), "five_rings", 0, 50, 9)

    def test_too_small_roster(self):
        with pytest.raises(ConfigurationError):
            build_group_plan([1, 2], "three_groups", 0, 50, 9)

    def test_group_plan_rounds(self):
        slot = run_slot_rounds(40, exchange=True)
        assert group_plan_rounds("three_groups", 40) == 3 * slot
        assert group_plan_rounds("two_groups_majority", 40) == slot


class TestGroupPhaseHonest:
    @pytest.mark.parametrize("scheme", ["three_groups", "two_groups_majority", "two_groups_strong"])
    def test_all_honest_agree_on_correct_map(self, rc8, scheme):
        n = rc8.n
        memo = ExplorerMemo()
        ticks, _ = plan_honest_run(rc8, 0, memo)
        tb = ticks + 2
        w = World(rc8, model="strong" if scheme == "two_groups_strong" else "weak")
        outs = {}
        roster = list(range(1, n + 1))
        plan = build_group_plan(roster, scheme, 0, tb, n)
        for rid in roster:
            out = {}
            outs[rid] = out

            def factory(api, _out=out, _plan=plan):
                return group_phase_program(api, _plan, _out, memo)

            w.add_robot(rid, 0, factory)
        w.run(max_rounds=plan.end_round + 5)
        for rid, out in outs.items():
            assert out["map"] is not None, f"robot {rid} got no map"
            assert rooted_isomorphic(rc8, 0, out["map"], 0)

    def test_hijacked_run_out_voted_in_three_groups(self, rc8):
        """Byzantine majority inside group A corrupts run 0; runs 1–2 stay
        clean and the majority-of-three still yields the correct map —
        the exact Section 3.2 failure-tolerance argument."""
        n = rc8.n  # 8 => groups of 2,2,4; cmd_threshold = 2
        memo = ExplorerMemo()
        ticks, _ = plan_honest_run(rc8, 0, memo)
        tb = ticks + 2
        w = World(rc8)
        roster = list(range(1, n + 1))
        plan = build_group_plan(roster, "three_groups", 0, tb, n)
        # Both members of group A Byzantine: they can fake a full command
        # quorum for run 0 (>= threshold 2) and hijack the token.
        byz = set(plan.runs[0].agent_ids)
        adv = Adversary("false_commander", seed=3)
        outs = {}
        for rid in roster:
            if rid in byz:
                w.add_robot(rid, 0, adv.program_factory(rid), byzantine=True)
            else:
                out = {}
                outs[rid] = out

                def factory(api, _out=out, _plan=plan):
                    return group_phase_program(api, _plan, _out, memo)

                w.add_robot(rid, 0, factory)
        w.run(max_rounds=plan.end_round + 5)
        for rid, out in outs.items():
            assert out["map"] is not None
            assert rooted_isomorphic(rc8, 0, out["map"], 0)
