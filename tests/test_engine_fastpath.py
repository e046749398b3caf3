"""The optimized engine must be indistinguishable from the reference.

``World.step`` took four optimizations (lazy snapshot, cached sub-round
order, a node index rebuilt on read, recycled boards); ``ReferenceWorld``
keeps the original straight-line implementation as executable
specification.  These tests run rich mixed scenarios through both and
require identical traces, positions, and round accounting — plus pin the
individual fast-path behaviours (sleep fast-forwarding, board decay,
tuple index views) the optimizations lean on.  Worlds keep only counters
by default, so every event-by-event comparison builds both sides with
``keep_trace=True``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import random_connected, ring
from repro.sim import (
    MOVES,
    STAY,
    Move,
    ReferenceWorld,
    Sleep,
    Stay,
    Wait,
    World,
    finish_report,
)


def fingerprint(w):
    return {
        "round": w.round,
        "positions": w.positions(),
        "settled": w.honest_settled_positions(),
        "counters": dict(w.trace.counters),
        "moves": {rid: r.moves_made for rid, r in w.robots.items()},
        "terminated": {rid: r.terminated for rid, r in w.robots.items()},
    }


def full_trace(w):
    assert w.trace.keep_events, "compare events only on keep_trace=True worlds"
    return [(e.round, e.kind, e.data) for e in w.trace.events]


# --------------------------------------------------------------------- #
# Mixed-behaviour programs whose *decisions* depend on observations, so
# any snapshot/order/index divergence changes the trace and is caught.
# --------------------------------------------------------------------- #

def _observer_mover(api):
    while True:
        start = api.colocated_at_round_start()
        live = api.colocated()
        api.set_flag(len(live) & 1)
        settled_now = sum(v.state == "Settled" for v in live) - sum(
            v.state == "Settled" for v in start
        )
        if settled_now > 0 or (api.round + api.id) % 3 == 0:
            yield Move((api.round + api.id) % api.degree() + 1)
        else:
            yield Stay()


def _settler(target_rounds):
    def program(api):
        for _ in range(target_rounds):
            yield Move(1)
        api.settle()
        yield Stay()

    return program


def _gossip(api):
    while True:
        api.say(("seen", api.id, len(api.colocated())))
        inbox = api.messages() + api.messages_prev()
        if len(inbox) > 2:
            yield Move(1)
        else:
            yield Stay()


def _napper(api):
    while True:
        yield Sleep(2 + api.id % 3)
        yield Move(api.id % api.degree() + 1)


def _short_lived(api):
    yield Move(1)
    yield Stay()  # then StopIteration -> termination mid-run


def _byz_id_faker(api, victim):
    i = 0
    while True:
        api.set_claimed_id(victim if i % 2 == 0 else api.id)
        api.set_state("Settled" if i % 3 == 0 else "tobeSettled")
        api.set_flag(i & 1)
        i += 1
        yield Move(1) if i % 4 == 0 else Stay()


def _populate(w, model):
    w.add_robot(3, 0, _observer_mover)
    w.add_robot(5, 1, _observer_mover)
    w.add_robot(7, 2, _settler(3))
    w.add_robot(11, 2, _gossip)
    w.add_robot(13, 3, _gossip)
    w.add_robot(17, 4, _napper)
    w.add_robot(19, 0, _short_lived)
    if model == "strong":
        w.add_robot(23, 1, lambda api: _byz_id_faker(api, victim=3), byzantine=True)
    return w


@pytest.mark.parametrize("model", ["weak", "strong"])
@pytest.mark.parametrize("graph_seed", [1, 4])
def test_optimized_trace_equals_reference(model, graph_seed):
    """Bit-identical traces on a mixed scenario (observation-dependent
    moves, messages, sleeps, terminations, strong-Byzantine ID faking)."""
    g = random_connected(9, seed=graph_seed)
    w_opt = _populate(World(g, model=model, keep_trace=True), model)
    w_ref = _populate(ReferenceWorld(g, model=model, keep_trace=True), model)
    for _ in range(40):
        w_opt.step()
        w_ref.step()
        assert w_opt.round == w_ref.round
    assert fingerprint(w_opt) == fingerprint(w_ref)
    assert full_trace(w_opt) and full_trace(w_opt) == full_trace(w_ref)


@pytest.mark.parametrize("model", ["weak", "strong"])
def test_default_world_keeps_counters_only(model):
    """A default world stores no events, and its counters, positions and
    round accounting equal those of a ``keep_trace=True`` run."""
    g = random_connected(9, seed=1)
    w_default = _populate(World(g, model=model), model)
    w_traced = _populate(World(g, model=model, keep_trace=True), model)
    for _ in range(40):
        w_default.step()
        w_traced.step()
    assert w_default.trace.events == []
    assert w_traced.trace.events
    assert w_default.trace.counters == w_traced.trace.counters
    assert fingerprint(w_default) == fingerprint(w_traced)


# --------------------------------------------------------------------- #
# Load programs: each drives one hot path of the optimized engine —
# movement + node index, observation + snapshot views, message boards,
# and sleep fast-forwarding — at k robots on ring and random graphs.
# --------------------------------------------------------------------- #

def _marcher(api):
    """March through port 1 forever — pure movement/index load."""
    move = Move(1)
    while True:
        yield move


def _random_walker(rng_seed):
    """Deterministic pseudo-random walk (an LCG keeps the program cheap
    next to the engine work it drives)."""

    def program(api):
        h = (api.id * 1103515245 + rng_seed + 12345) & 0x7FFFFFFF
        stay = Stay()
        while True:
            h = (h * 1103515245 + 12345) & 0x7FFFFFFF
            deg = api.degree()
            if deg and h % 10 < 7:
                yield Move((h >> 4) % deg + 1)
            else:
                yield stay

    return program


def _observer(api):
    """Flip flags every round, observe live + round-start views at
    protocol-realistic decision points (every 4th round)."""
    rid = api.id
    flag = rid & 1
    move, stay = Move(1), Stay()
    rnd = 0
    while True:
        api.set_flag(flag)
        flag ^= 1
        if (rnd + rid) & 3 == 0:
            start = api.colocated_at_round_start()
            live = api.colocated()
            if len(live) < len(start) - 1:  # pragma: no cover - sanity anchor
                raise AssertionError("view cardinality mismatch")
        rnd += 1
        yield move if (rnd + rid) % 3 == 0 else stay


def _talker(api):
    """Post every round, read boards at pickup points — board load."""
    rid = api.id
    move, stay = Move(1), Stay()
    rnd = 0
    while True:
        api.say((rid, rnd))
        if (rnd + rid) % 3 == 0:
            api.messages()
            api.messages_prev()
        rnd += 1
        yield move if (rnd + rid) % 5 == 0 else stay


def _short_napper(api):
    """Alternate short naps with single moves — fast-forward load."""
    nap, move = Sleep(3), Move(1)
    while True:
        yield nap
        yield move


def _spread(world_cls, graph, k, program):
    """``k`` robots running ``program``, spread evenly over ``graph``."""
    world = world_cls(graph)
    spread = max(1, graph.n // k) if k else 1
    for rid in range(1, k + 1):
        world.add_robot(rid, ((rid - 1) * spread) % graph.n, program)
    return world


#: name -> builder(world_cls, n, k, seed) -> world
LOAD_SCENARIOS = {
    "ring_march": lambda cls, n, k, seed: _spread(cls, ring(n), k, _marcher),
    "ring_observe": lambda cls, n, k, seed: _spread(cls, ring(n), k, _observer),
    "random_walk": lambda cls, n, k, seed: _spread(
        cls, random_connected(n, seed=seed), k, _random_walker(seed)
    ),
    "messages": lambda cls, n, k, seed: _spread(cls, ring(n), k, _talker),
    "sleepers": lambda cls, n, k, seed: _spread(cls, ring(n), k, _short_napper),
}


def test_benchmark_scenarios_match_reference():
    """Every engine load scenario agrees across engines."""
    for name, build in LOAD_SCENARIOS.items():
        w_opt = build(World, 24, 16, 0)
        w_ref = build(ReferenceWorld, 24, 16, 0)
        for _ in range(60):
            w_opt.step()
            w_ref.step()
        assert fingerprint(w_opt) == fingerprint(w_ref), name


def test_teleport_and_midrun_add_robot_match_reference():
    """Simulator-side mutations (teleport, late add) keep engines aligned."""
    g = ring(8)
    w_opt, w_ref = World(g, keep_trace=True), ReferenceWorld(g, keep_trace=True)
    for w in (w_opt, w_ref):
        w.add_robot(1, 0, _observer_mover)
        w.add_robot(2, 3, _gossip)
        for _ in range(5):
            w.step()
        w.teleport(1, 6)
        w.charge("oracle", 12)
        w.add_robot(9, 2, _settler(2))
        for _ in range(10):
            w.step()
    assert fingerprint(w_opt) == fingerprint(w_ref)
    assert full_trace(w_opt) == full_trace(w_ref)
    assert w_opt.total_rounds == w_ref.total_rounds


def _waiter(until_rel, wakes):
    """Wait ``until_rel`` rounds (forever for ``None``), log the wake,
    step along port 1; repeat."""

    def program(api):
        while True:
            yield Wait(None if until_rel is None else api.round + until_rel)
            wakes.append((api.id, api.round, len(api.messages_prev())))
            yield MOVES[1]

    return program


def _crier(api):
    """Stay put and post every third round."""
    while True:
        if api.round % 3 == 1:
            api.say(("psst", api.id))
        yield STAY


def test_waiting_robots_match_reference():
    """Waiting robots woken by a message, woken by their deadline and
    never woken agree across engines, event by event."""
    runs = []
    for cls in (World, ReferenceWorld):
        w = cls(ring(6), keep_trace=True)
        wakes = []
        w.add_robot(1, 0, _crier)
        w.add_robot(3, 0, _waiter(None, wakes))
        w.add_robot(5, 3, _waiter(4, wakes))
        w.add_robot(7, 5, _waiter(None, wakes), byzantine=True)
        for _ in range(20):
            w.step()
        runs.append((fingerprint(w), full_trace(w), wakes))
    assert runs[0] == runs[1]
    wakes = runs[0][2]
    assert wakes[0] == (3, 2, 1)  # woken by the crier's round-1 post
    assert (5, 4, 0) in wakes  # woken by its deadline
    assert all(rid != 7 for rid, _, _ in wakes)  # never woken


class TestSleepFastForward:
    def test_all_asleep_jumps_in_one_step(self):
        """All robots Sleep(r): a single step() lands on the wake round
        with an empty previous board."""
        g = ring(4)
        w = World(g)

        def sleeper(api):
            api.say("pre-sleep")  # populates round-0 board
            yield Sleep(7)
            api.settle()
            yield Stay()

        w.add_robot(1, 0, sleeper)
        w.add_robot(2, 1, sleeper)
        w.step()  # one step: both sleep, world fast-forwards
        assert w.round == 7
        assert w.board_previous == {}  # boards decayed during the jump
        assert w.board_current == {}

    def test_accounting_identical_to_stepping_one_by_one(self):
        """Sleep(r) must be indistinguishable from yielding Stay r times
        (the Sleep docstring's contract), including round accounting,
        settles, and reports."""
        r = 9

        def sleeping(api):
            yield Sleep(r)
            api.settle()
            return
            yield  # pragma: no cover

        def staying(api):
            for _ in range(r):
                yield Stay()
            api.settle()
            return
            yield  # pragma: no cover

        g = ring(5)
        w_sleep, w_stay = World(g), World(g)
        for w, prog in ((w_sleep, sleeping), (w_stay, staying)):
            w.add_robot(1, 0, prog)
            w.add_robot(2, 2, prog)
            w.run(max_rounds=r + 3)
        assert w_sleep.round == w_stay.round
        assert w_sleep.board_previous == w_stay.board_previous == {}
        rep_sleep, rep_stay = finish_report(w_sleep), finish_report(w_stay)
        assert rep_sleep.success and rep_stay.success
        assert rep_sleep.rounds_simulated == rep_stay.rounds_simulated
        assert rep_sleep.settled == rep_stay.settled
        assert w_sleep.trace.count("settle") == w_stay.trace.count("settle")
        assert w_sleep.trace.count("move") == w_stay.trace.count("move") == 0

    def test_fast_forward_matches_reference_engine(self):
        g = ring(4)

        def cycle(api):
            while True:
                yield Sleep(5)
                yield Move(1)

        w_opt, w_ref = World(g, keep_trace=True), ReferenceWorld(g, keep_trace=True)
        for w in (w_opt, w_ref):
            w.add_robot(1, 0, cycle)
            w.add_robot(2, 2, cycle)
            for _ in range(12):
                w.step()
        assert fingerprint(w_opt) == fingerprint(w_ref)
        assert full_trace(w_opt) == full_trace(w_ref)


    @pytest.mark.parametrize("engine", [World, ReferenceWorld])
    def test_sleeping_byzantine_does_not_outlive_honest_robots(self, engine):
        """Once the last honest robot terminates, ``run`` stops at the next
        round even if a Byzantine robot sleeps: the fast-forward must not
        jump to its wake round (or the deadline) first."""

        def honest(api):
            yield STAY
            yield STAY

        def sleeping(api):
            while True:
                yield Sleep(1000)

        def staying(api):
            while True:
                yield STAY

        rounds = []
        for byzantine in (sleeping, staying):
            w = engine(ring(4))
            w.add_robot(1, 0, honest)
            w.add_robot(2, 1, byzantine, byzantine=True)
            assert w.run(max_rounds=500)
            rounds.append(w.round)
        assert rounds == [3, 3]


class TestIndexSafety:
    def test_robots_at_returns_tuple(self):
        w = World(ring(4))
        w.add_robot(1, 0, lambda api: iter([Stay()]))
        got = w.robots_at(0)
        assert isinstance(got, tuple)
        assert [r.true_id for r in got] == [1]
        assert w.robots_at(3) == ()

    def test_caller_mutation_cannot_corrupt_index(self):
        """The returned tuple is a copy: no caller can break the index
        (the old list return let `.clear()` desync robot positions)."""
        w = World(ring(4))
        w.add_robot(1, 0, lambda api: iter([Move(1), Stay()]))
        got = w.robots_at(0)
        with pytest.raises((AttributeError, TypeError)):
            got.clear()  # tuples have no clear / item assignment
        w.step()
        assert [r.true_id for r in w.robots_at(1)] == [1]

    def test_sleep_exported(self):
        """Sleep is a public action: importable from the package roots."""
        import repro.sim.robot as robot_mod

        assert "Sleep" in robot_mod.__all__
        from repro.sim import Sleep as s1
        from repro.sim.robot import Sleep as s2

        assert s1 is s2


class TestLazySnapshotProperty:
    def test_round_start_snapshot_equivalent_to_eager(self):
        """The lazy round_start_snapshot property serves the same data the
        reference engine captures eagerly (checked mid-run via the API)."""
        g = random_connected(7, seed=2)
        seen_opt, seen_ref = [], []

        def recorder(api, sink):
            while True:
                sink.append(
                    tuple((v.claimed_id, v.state, v.flag)
                          for v in api.colocated_at_round_start())
                )
                api.set_flag((api.round + api.id) & 1)
                yield Move(1) if (api.round + api.id) % 2 else Stay()

        w_opt, w_ref = World(g), ReferenceWorld(g)
        for w, sink in ((w_opt, seen_opt), (w_ref, seen_ref)):
            w.add_robot(1, 0, lambda api: recorder(api, sink))
            w.add_robot(2, 0, lambda api: recorder(api, sink))
            w.add_robot(3, 1, lambda api: recorder(api, sink))
            for _ in range(15):
                w.step()
        assert seen_opt == seen_ref


#: One graph for the node-index property: mixed degrees, seven nodes.
_INDEX_GRAPH = random_connected(7, seed=3)
_INDEX_NODES = range(_INDEX_GRAPH.n)
_MAX_ROBOTS = 8

#: Index operations.  A step assigns each robot an action code: code % 5
#: picks a port (0 = stay) and codes >= 5 also observe during the round.
_INDEX_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.sampled_from(_INDEX_NODES)),
        st.tuples(
            st.just("step"),
            st.lists(st.integers(0, 9), max_size=_MAX_ROBOTS),
        ),
        st.tuples(
            st.just("teleport"),
            st.integers(0, _MAX_ROBOTS - 1),
            st.sampled_from(_INDEX_NODES),
        ),
        st.tuples(st.just("read")),
    ),
    max_size=30,
)


def _scripted(plan, log):
    """Play ``plan[id]`` each round, logging observations when asked."""

    def program(api):
        while True:
            code = plan.get(api.id, 0)
            if code >= 5:
                log.append((
                    api.round,
                    api.id,
                    [(v.claimed_id, v.state) for v in api.colocated()],
                    [v.claimed_id for v in api.colocated_at_round_start()],
                ))
            port = code % 5
            yield Move((port - 1) % api.degree() + 1) if port else STAY

    return program


class TestNodeIndex:
    @settings(max_examples=60)
    @given(ops=_INDEX_OPS)
    def test_index_equals_a_fresh_grouping_and_the_reference(self, ops):
        """Across adds, moves, teleports and reads, ``robots_at`` equals a
        from-scratch grouping of ``world.robots`` in insertion order, and
        ``World`` stays fingerprint-identical to ``ReferenceWorld``."""
        plan = {}
        logs = ([], [])
        worlds = (
            World(_INDEX_GRAPH),
            ReferenceWorld(_INDEX_GRAPH),
        )
        for op in ops:
            for w, log in zip(worlds, logs):
                if op[0] == "add" and len(w.robots) < _MAX_ROBOTS:
                    w.add_robot(len(w.robots) + 1, op[1], _scripted(plan, log))
                elif op[0] == "teleport" and w.robots:
                    w.teleport(op[1] % len(w.robots) + 1, op[2])
                elif op[0] == "read":
                    for v in _INDEX_NODES:
                        expected = [r for r in w.robots.values() if r.node == v]
                        assert list(w.robots_at(v)) == expected
                elif op[0] == "step":
                    plan.clear()
                    plan.update(enumerate(op[1], start=1))
                    w.step()
            assert fingerprint(worlds[0]) == fingerprint(worlds[1])
        assert logs[0] == logs[1]
