"""Failure injection: what actually breaks beyond the theorems' bounds.

The drivers enforce each theorem's pre-conditions, so to show the bounds
are *load-bearing* (not bureaucratic) these tests bypass the drivers and
assemble the raw machinery in out-of-contract regimes:

* strong Byzantine robots against the weak-model procedure
  Dispersion-Using-Map — Lemma 2 collapses (an honest ID gets
  blacklisted), which is the paper's stated reason for Section 4's
  redesign;
* a Byzantine majority in map voting — the majority rule elects garbage;
* believe-thresholds with a forged quorum — the token is hijacked.

Each test documents the exact invariant that dies.
"""

import numpy as np
import pytest

from repro.byzantine import Adversary
from repro.core import solve_theorem3
from repro.core.dispersion_using_map import (
    DispersionMemory,
    dispersion_rounds_bound,
    dispersion_using_map,
)
from repro.core.general_graphs import tick_budget_for
from repro.graphs import canonical_form, random_connected, ring
from repro.mapping import (
    ExplorerMemo,
    RunSpec,
    agent_program,
    majority_map,
    paper_pairing_schedule,
    plan_honest_run,
    run_slot_rounds,
    token_program,
)
from repro.sim import SETTLED, Move, Stay, World, finish_report


class TestStrongByzantineBreaksWeakProcedure:
    def test_impersonator_gets_honest_id_blacklisted(self):
        """Lemma 2 holds only for weak Byzantine robots.  A strong robot
        that claims honest robot H's ID and 'settles' somewhere H is not
        makes other honest robots blacklist H's ID — after which they may
        settle on top of H (Lemma 3's proof needs Lemma 2)."""
        g = random_connected(7, seed=3)
        w = World(g, model="strong")
        mems = {}
        victim = 5
        # The honest victim settles at node 0 in round 0 (it is the
        # smallest honest robot at the gather node); the walker records it
        # there.  The impersonator sits on the walker's first tour stop
        # claiming ("id 5", Settled): Step 4 sees ID 5 'settled earlier at
        # node 0' now present elsewhere — and blacklists the honest ID.
        first_stop, _ = g.traverse(0, 1)

        def impostor(api, rng=None):
            api.set_claimed_id(victim)
            api.set_state(SETTLED)
            while True:
                yield Stay()

        w.add_robot(9, first_stop, impostor, byzantine=True)
        for rid in (victim, 6):
            mem = DispersionMemory()
            mems[rid] = mem

            def factory(api, _mem=mem):
                return dispersion_using_map(api, g, 0, memory=_mem)

            w.add_robot(rid, 0, factory)
        w.run(max_rounds=dispersion_rounds_bound(7) + 4)
        # The weak-model invariant is violated: the walker blacklisted the
        # honest victim's ID.
        assert victim in mems[6].blacklist, (
            "strong Byzantine ID faking must poison the blacklist"
        )

    def test_weak_model_cannot_do_this(self):
        """Same scenario, weak model: the simulator pins claimed IDs, the
        blacklist stays clean, dispersion succeeds (Lemma 2)."""
        g = random_connected(7, seed=3)
        w = World(g, model="weak")
        mems = {}
        adv = Adversary("ghost_squatter", seed=1)
        w.add_robot(9, 1, adv.program_factory(9), byzantine=True)
        for rid in (5, 6):
            mem = DispersionMemory()
            mems[rid] = mem

            def factory(api, _mem=mem):
                return dispersion_using_map(api, g, 0, memory=_mem)

            w.add_robot(rid, 0, factory)
        w.run(max_rounds=dispersion_rounds_bound(7) + 4)
        for mem in mems.values():
            assert {5, 6}.isdisjoint(mem.blacklist)
        rep = finish_report(w)
        assert rep.success


class TestMajorityCollapsesBeyondHalf:
    def test_garbage_majority_elects_garbage(self):
        """Theorem 3's counting argument needs good pairings to outnumber
        bad ones; past f = n/2 the vote elects the adversary's map."""
        n = 8
        good = random_connected(n, seed=1)
        garbage = ring(n, seed=2)
        f = n // 2 + 1  # beyond ⌊n/2⌋−1
        candidates = [good] * (n - f - 1) + [garbage] * f
        winner = majority_map(candidates)
        assert canonical_form(winner, 0) == canonical_form(garbage, 0)

    def test_at_the_bound_good_still_wins(self):
        n = 8
        good = random_connected(n, seed=1)
        garbage = ring(n, seed=2)
        f = n // 2 - 1
        candidates = [good] * (n - f - 1) + [garbage] * f
        winner = majority_map(candidates)
        assert canonical_form(winner, 0) == canonical_form(good, 0)


class TestForgedQuorumHijacksToken:
    def test_token_follows_forged_commands_when_threshold_met(self):
        """With cmd_threshold=2 and two Byzantine 'agents', the token is
        marched through port 1 forever — the in-tolerance thresholds of
        Sections 3.2/4 exist precisely to make this quorum unreachable."""
        g = ring(8)
        run = RunSpec(
            tag=("hijack",), start_round=0, tick_budget=6,
            agent_ids=frozenset({1, 2}), token_ids=frozenset({3}),
            cmd_threshold=2, presence_threshold=1,
        )
        w = World(g)

        def forger(api, _run=run):
            # Forge a full quorum AND escort the token (commands are read
            # off the token's node board, so hijackers must travel along —
            # just like genuine agents).
            while True:
                api.say(("cmd", _run.tag, api.round // 2, 1))
                yield Stay()  # command round
                yield Move(1)  # move round: march with the token

        w.add_robot(1, 0, forger, byzantine=True)
        w.add_robot(2, 0, forger, byzantine=True)
        w.add_robot(3, 0, lambda api: token_program(api, run, {}))
        w.run(max_rounds=run.active_rounds)
        # Hijacked: the honest token left home under forged commands...
        assert w.robots[3].moves_made >= 2
        # ...but footnote-11 discipline still brings it home by slot end.
        w.run(max_rounds=run.end_round - w.round + 2)
        assert w.robots[3].node == 0

    @pytest.mark.parametrize("port", ["x", None, [1], 1.5, -1, 0, 10**9])
    def test_malformed_port_is_ignored(self, port):
        """A full quorum behind a port no robot can take (wrong type, < 1,
        or past the degree) leaves the token home, and crashes neither
        the token nor the engine."""
        g = ring(8)
        run = RunSpec(
            tag=("bad",), start_round=0, tick_budget=6,
            agent_ids=frozenset({1, 2}), token_ids=frozenset({3}),
            cmd_threshold=2, presence_threshold=1,
        )
        w = World(g)

        def forger(api, _run=run):
            while True:
                api.say(("cmd", _run.tag, api.round // 2, port))
                yield Stay()

        w.add_robot(1, 0, forger, byzantine=True)
        w.add_robot(2, 0, forger, byzantine=True)
        w.add_robot(3, 0, lambda api: token_program(api, run, {}))
        w.run(max_rounds=run.end_round + 2)
        assert w.robots[3].terminated and w.robots[3].moves_made == 0

    @pytest.mark.parametrize("port", ["x", None, [1], 1.5, -1])
    def test_malformed_port_cannot_crash_a_solve(self, port):
        """Theorem 3 within tolerance: in every pairing run where a
        Byzantine robot is the agent, it commands the bad port with the
        run's tag and tick.  The honest tokens ignore it."""
        rep = solve_theorem3(
            random_connected(8, seed=3), f=3, adversary=Adversary(_bad_commander(port))
        )
        assert rep.success, rep.violations

    def test_below_threshold_token_never_moves(self):
        g = ring(8)
        run = RunSpec(
            tag=("safe",), start_round=0, tick_budget=6,
            agent_ids=frozenset({1, 2, 5}), token_ids=frozenset({3}),
            cmd_threshold=2, presence_threshold=1,
        )
        w = World(g)
        adv = Adversary("false_commander", seed=0)
        w.add_robot(1, 0, adv.program_factory(1), byzantine=True)  # lone forger
        w.add_robot(3, 0, lambda api: token_program(api, run, {}))
        w.run(max_rounds=run.end_round + 2)
        assert w.robots[3].moves_made == 0


def _bad_commander(port):
    """A Byzantine agent that knows the Theorem 3 schedule (it has world
    access) and posts ``port`` as its command on every tick of its runs."""

    def program(api, rng):
        world = api.world
        tick_budget = tick_budget_for(world.graph, 0, ExplorerMemo())
        run_len = run_slot_rounds(tick_budget)
        posts = {}  # command round -> (run tag, tick)
        for slot_idx, slot in enumerate(paper_pairing_schedule(sorted(world.robots))):
            for a, b in slot:
                for sub, agent in enumerate((a, b)):
                    if agent == api.id:
                        start = 2 + (2 * slot_idx + sub) * run_len
                        for tick in range(tick_budget):
                            posts[start + 2 * tick] = (("pair", slot_idx, sub, a, b), tick)
        while True:
            post = posts.get(api.round)
            if post is not None:
                api.say(("cmd", *post, port))
            yield Stay()

    return program


class TestOverfullWorld:
    def test_more_robots_than_nodes_cannot_disperse(self):
        """k > n with cap 1: Dispersion-Using-Map's pigeonhole breaks and
        some honest robot must end unsettled (pre-Theorem-8 intuition)."""
        g = random_connected(6, seed=5)
        w = World(g)
        k = 8
        for rid in range(1, k + 1):
            def factory(api):
                return dispersion_using_map(api, g, 0)

            w.add_robot(rid, 0, factory)
        w.run(max_rounds=dispersion_rounds_bound(6) + 8)
        rep = finish_report(w)
        assert not rep.success
        unsettled = [rid for rid, node in rep.settled.items() if node is None]
        assert len(unsettled) == k - g.n
