"""Unit tests for the map-exchange collection (group modes' final step)."""

import pytest

from repro.byzantine import Adversary
from repro.core import solve_theorem4, solve_theorem5, solve_theorem6
from repro.graphs import canonical_form, random_connected, ring
from repro.mapping import RunSpec
from repro.mapping.token_mapping import _collect_map
from repro.sim import Stay, World


def exchange_world(posts, agent_ids, cmd_threshold, tag=("x",)):
    """Build a world where given (sender_id, payload) posts sit on the
    previous-round board, then collect from an honest observer's view."""
    g = ring(4)
    w = World(g)
    collected = {}
    run = RunSpec(
        tag=tag, start_round=0, tick_budget=1,
        agent_ids=frozenset(agent_ids), token_ids=frozenset({99}),
        cmd_threshold=cmd_threshold, exchange=True,
    )

    def poster_gen(api, payloads):
        for p in payloads:
            api.say(p)
        yield Stay()
        yield Stay()

    def observer(api):
        yield Stay()
        collected["result"] = _collect_map(api, run)
        yield Stay()

    # Posters get the IDs named in `posts` via distinct robots.
    for rid, payloads in posts.items():
        w.add_robot(rid, 0, lambda api, _p=payloads: poster_gen(api, _p), byzantine=True)

    w.add_robot(50, 0, observer)
    w.step()
    w.step()
    return collected["result"]


GOOD = canonical_form(random_connected(5, seed=1), 0)
BAD = canonical_form(ring(5), 0)


class TestCollectMap:
    def test_quorum_accepted(self):
        result = exchange_world(
            {1: [("map", ("x",), GOOD)], 2: [("map", ("x",), GOOD)]},
            agent_ids={1, 2}, cmd_threshold=2,
        )
        assert result == GOOD

    def test_below_threshold_rejected(self):
        result = exchange_world(
            {1: [("map", ("x",), GOOD)]},
            agent_ids={1, 2}, cmd_threshold=2,
        )
        assert result is None

    def test_non_agents_ignored(self):
        result = exchange_world(
            {7: [("map", ("x",), GOOD)], 8: [("map", ("x",), GOOD)]},
            agent_ids={1, 2}, cmd_threshold=1,
        )
        assert result is None

    def test_wrong_tag_ignored(self):
        result = exchange_world(
            {1: [("map", ("y",), GOOD)]},
            agent_ids={1}, cmd_threshold=1,
        )
        assert result is None

    def test_none_payload_ignored(self):
        result = exchange_world(
            {1: [("map", ("x",), None)]},
            agent_ids={1}, cmd_threshold=1,
        )
        assert result is None

    def test_largest_backing_wins(self):
        result = exchange_world(
            {
                1: [("map", ("x",), GOOD)],
                2: [("map", ("x",), GOOD)],
                3: [("map", ("x",), BAD)],
            },
            agent_ids={1, 2, 3}, cmd_threshold=1,
        )
        assert result == GOOD

    def test_duplicate_sender_counts_once(self):
        # One agent spamming the same encoding is a single distinct backer.
        result = exchange_world(
            {1: [("map", ("x",), BAD), ("map", ("x",), BAD)]},
            agent_ids={1, 2, 3}, cmd_threshold=2,
        )
        assert result is None

    @pytest.mark.parametrize("junk", [[1], (1, [2]), {"map": 1}])
    def test_unhashable_encoding_ignored(self, junk):
        """An agent may post any payload; one that cannot be a vote key
        is skipped, and the genuine quorum still wins."""
        result = exchange_world(
            {
                1: [("map", ("x",), junk)],
                2: [("map", ("x",), GOOD)],
                3: [("map", ("x",), GOOD)],
            },
            agent_ids={1, 2, 3}, cmd_threshold=2,
        )
        assert result == GOOD


def _unhashable_mapper(api, rng):
    """Posts an unhashable map encoding under every group-run tag."""
    while True:
        for tag in (("grp3", 0), ("grp3", 1), ("grp3", 2), ("grp2", 0), ("grpS", 0)):
            api.say(("map", tag, [1]))
        yield Stay()


@pytest.mark.parametrize(
    "solve, f",
    [(solve_theorem4, 3), (solve_theorem5, 2), (solve_theorem6, 2)],
    ids=["theorem4", "theorem5", "theorem6"],
)
def test_unhashable_encoding_cannot_crash_a_solve(solve, f):
    """Within tolerance, Byzantine agent-group members (the lowest IDs)
    post an unhashable encoding in the exchange rounds."""
    rep = solve(random_connected(12, seed=3), f=f, adversary=Adversary(_unhashable_mapper))
    assert rep.success, rep.violations
