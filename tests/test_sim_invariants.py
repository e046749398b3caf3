"""Property tests of simulator-level invariants under random programs.

These harden the substrate everything else trusts: whatever robots do
(random moves, random messages, random sleeps), the world conserves
robots, keeps positions legal, reports arrival ports truthfully, keeps
its O(1) termination count equal to a scan of the robots, and stays
bit-reproducible under a fixed seed.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graphs import random_connected
from repro.sim import Move, ReferenceWorld, Sleep, Stay, World
from repro.sim.progress import observe


def chaotic_program(api, rng):
    """A random but *legal* robot: moves, talks, flags, sleeps."""
    while True:
        roll = rng.random()
        api.set_flag(int(rng.integers(0, 2)))
        if roll < 0.1:
            api.say(("noise", int(rng.integers(0, 100))))
        if roll < 0.5 and api.degree() > 0:
            yield Move(int(rng.integers(1, api.degree() + 1)))
        elif roll < 0.6:
            yield Sleep(int(rng.integers(1, 4)))
        else:
            yield Stay()


def build_chaos(n, robots, seed):
    g = random_connected(n, seed=seed)
    w = World(g, keep_trace=False)
    for rid in range(1, robots + 1):
        rng = np.random.default_rng((seed, rid))

        def factory(api, _rng=rng):
            return chaotic_program(api, _rng)

        w.add_robot(rid, rid % n, factory)
    return g, w


@given(n=st.integers(4, 10), robots=st.integers(1, 12), seed=st.integers(0, 100))
@settings(max_examples=25)
def test_robots_conserved_and_positions_legal(n, robots, seed):
    g, w = build_chaos(n, robots, seed)
    for _ in range(30):
        w.step()
        assert len(w.robots) == robots
        for r in w.robots.values():
            assert 0 <= r.node < n
        # The node index matches reality.
        indexed = sorted(
            rr.true_id for node in range(n) for rr in w.robots_at(node)
        )
        assert indexed == sorted(w.robots.keys())


@given(n=st.integers(4, 10), seed=st.integers(0, 100))
@settings(max_examples=25)
def test_arrival_ports_truthful(n, seed):
    """After every move, re-traversing the arrival port from the new node
    leads back to the old node (the model's edge-awareness guarantee)."""
    g = random_connected(n, seed=seed)
    w = World(g, keep_trace=False)
    rng = np.random.default_rng(seed)
    trail = []

    def walker(api):
        while True:
            port = int(rng.integers(1, api.degree() + 1))
            yield Move(port)

    w.add_robot(1, 0, walker)
    prev = 0
    for _ in range(20):
        w.step()
        r = w.robots[1]
        back, _ = g.traverse(r.node, r.arrival_port)
        assert back == prev
        prev = r.node


@given(n=st.integers(4, 9), robots=st.integers(2, 8), seed=st.integers(0, 50))
@settings(max_examples=20)
def test_bit_reproducibility(n, robots, seed):
    _, w1 = build_chaos(n, robots, seed)
    _, w2 = build_chaos(n, robots, seed)
    for _ in range(25):
        w1.step()
        w2.step()
    assert w1.positions() == w2.positions()
    assert w1.round == w2.round


@given(seed=st.integers(0, 60))
@settings(max_examples=20)
def test_sleep_equivalent_to_stays(seed):
    """Sleep(k) must be observationally identical to k Stays for the
    sleeping robot's own trajectory."""
    g = random_connected(6, seed=seed)

    def with_sleep(api):
        yield Move(1)
        yield Sleep(5)
        yield Move(1)
        while True:
            yield Stay()

    def with_stays(api):
        yield Move(1)
        for _ in range(5):
            yield Stay()
        yield Move(1)
        while True:
            yield Stay()

    w1 = World(g)
    w1.add_robot(1, 0, with_sleep)
    w2 = World(g)
    w2.add_robot(1, 0, with_stays)
    positions1, positions2 = [], []
    for _ in range(9):
        w1.step()
        w2.step()
        positions1.append((w1.round, w1.robots[1].node))
        positions2.append((w2.round, w2.robots[1].node))
    # The sleeping world fast-forwards its round counter (and thus races
    # ahead in wall-clock), but at every round both worlds observed, the
    # robot must be at the same node — and both trajectories end parked
    # at the same final node.
    d1, d2 = dict(positions1), dict(positions2)
    common = set(d1) & set(d2)
    assert common, "worlds never observed a common round"
    for r in common:
        assert d1[r] == d2[r], (r, d1[r], d2[r])
    assert w1.robots[1].node == w2.robots[1].node


def mortal_program(api, rng, lifetime):
    """Moves, stays and sleeps at random, then returns after
    ``lifetime`` resumptions (0 = terminates on its first one)."""
    for _ in range(lifetime):
        roll = rng.random()
        if roll < 0.4:
            yield Move(int(rng.integers(1, api.degree() + 1)))
        elif roll < 0.55:
            yield Sleep(int(rng.integers(1, 4)))
        else:
            yield Stay()


def honest_scan(w):
    """The termination condition by definition."""
    return all(r.terminated for r in w.robots.values() if not r.byzantine)


@given(
    n=st.integers(4, 8),
    seed=st.integers(0, 100),
    batches=st.lists(
        st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=4),
        min_size=1,
        max_size=4,
    ),
    budget=st.integers(1, 8),
)
@settings(max_examples=30, deadline=None)
def test_live_honest_count_matches_scan(n, seed, batches, budget):
    """``all_honest_done()`` (a live count on the optimized world) equals
    the scan after every step, with robots added between ``run`` calls,
    and both engines agree on when the run is done."""
    g = random_connected(n, seed=seed)
    worlds = (World(g), ReferenceWorld(g))

    def check(world, _round):
        assert world.all_honest_done() == honest_scan(world)

    rid = 0
    for batch in batches:
        for byzantine, lifetime in batch:
            rid += 1
            for w in worlds:
                rng = np.random.default_rng((seed, rid))

                def factory(api, _rng=rng, _life=lifetime):
                    return mortal_program(api, _rng, _life)

                w.add_robot(rid, rid % n, factory, byzantine=byzantine)
        for w in worlds:
            check(w, w.round)
        with observe(check):
            done = [w.run(max_rounds=budget) for w in worlds]
        assert done[0] == done[1] == honest_scan(worlds[0])
        assert worlds[0].round == worlds[1].round
        assert worlds[0].positions() == worlds[1].positions()
