"""Tests for the exploration-with-movable-token map construction."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.graphs.traversal as traversal
import repro.mapping.token_mapping as token_mapping
from repro.byzantine.strategies import idle, random_walker, squatter
from repro.core import solve_theorem3, solve_theorem4, solve_theorem6
from repro.graphs import (
    canonical_form,
    clique,
    find_isomorphism,
    lollipop,
    random_connected,
    ring,
    rooted_isomorphic,
    star,
)
from repro.mapping import (
    ExplorerMemo,
    RunSpec,
    agent_program,
    decode_canonical,
    plan_honest_run,
    run_slot_rounds,
    token_program,
)
from repro.mapping.token_mapping import _MapOverflow, explorer_core
from repro.sim import STAY, World


class TestPlanHonestRun:
    def test_map_isomorphic(self, zoo_graph):
        ticks, m = plan_honest_run(zoo_graph, 0, ExplorerMemo())
        assert m.n == zoo_graph.n and m.m == zoo_graph.m
        assert rooted_isomorphic(zoo_graph, 0, m, 0)

    @given(seed=st.integers(0, 60), n=st.integers(4, 11), root=st.integers(0, 10))
    @settings(max_examples=30)
    def test_map_exact_identification(self, seed, n, root):
        """The produced map matches the real graph node-for-node via the
        unique root-preserving isomorphism."""
        g = random_connected(n, seed=seed)
        root = root % n
        ticks, m = plan_honest_run(g, root, ExplorerMemo())
        mapping = find_isomorphism(m, 0, g, root)
        assert mapping is not None

    def test_tick_counts_deterministic(self):
        g = random_connected(9, seed=1)
        first = plan_honest_run(g, 0, ExplorerMemo())[0]
        assert plan_honest_run(g, 0, ExplorerMemo())[0] == first

    def test_tick_counts_scale_with_size(self):
        t_small = plan_honest_run(random_connected(6, seed=3), 0, ExplorerMemo())[0]
        t_big = plan_honest_run(random_connected(12, seed=3), 0, ExplorerMemo())[0]
        assert t_big > t_small

    @pytest.mark.parametrize("factory", [lambda: ring(8), lambda: clique(5),
                                         lambda: star(6), lambda: lollipop(4, 3)])
    def test_structured_families(self, factory):
        g = factory()
        _, m = plan_honest_run(g, 0, ExplorerMemo())
        assert rooted_isomorphic(g, 0, m, 0)


def run_pair(graph, agent_id, token_id, byz_token_strategy=None, budget_margin=2):
    """Drive one agent/token pair in a real world; return (map, world, run)."""
    memo = ExplorerMemo()
    ticks, _ = plan_honest_run(graph, 0, memo)
    run = RunSpec(
        tag=("t", 0),
        start_round=0,
        tick_budget=ticks + budget_margin,
        agent_ids=frozenset({agent_id}),
        token_ids=frozenset({token_id}),
    )
    w = World(graph)
    out = {}
    w.add_robot(agent_id, 0, lambda api: agent_program(api, run, out, memo))
    if byz_token_strategy is None:
        w.add_robot(token_id, 0, lambda api: token_program(api, run, {}))
    else:
        rng = np.random.default_rng(7)
        w.add_robot(
            token_id, 0, lambda api: byz_token_strategy(api, rng), byzantine=True
        )
    w.run(max_rounds=run.end_round + 5)
    return out.get(run.tag), w, run


class TestSimulatedPair:
    def test_honest_pair_builds_correct_map(self, rc8):
        m, w, run = run_pair(rc8, 1, 2)
        assert m is not None
        assert rooted_isomorphic(rc8, 0, m, 0)

    def test_both_return_home(self, rc8):
        m, w, run = run_pair(rc8, 1, 2)
        assert w.robots[1].node == 0
        assert w.robots[2].node == 0

    def test_role_order_independent_of_ids(self, rc8):
        # Agent may have the larger ID: commands still reach the token
        # (one-round message latency is ID-order agnostic).
        m, w, run = run_pair(rc8, 5, 2)
        assert m is not None and rooted_isomorphic(rc8, 0, m, 0)

    def test_byz_token_squatter_yields_no_map(self, rc8):
        # A token that never moves: the agent's frontier tests misidentify
        # nodes or overflow; either way no *correct* map may be reported
        # as correct — the run aborts (None) or returns garbage that the
        # overflow guard caught.
        m, w, run = run_pair(rc8, 1, 2, byz_token_strategy=squatter)
        if m is not None:
            assert not rooted_isomorphic(rc8, 0, m, 0) or m.n <= rc8.n

    def test_byz_token_random_walker_agent_survives(self, rc8):
        m, w, run = run_pair(rc8, 1, 2, byz_token_strategy=random_walker)
        # Agent must terminate the run and be back home by slot end.
        assert w.robots[1].node == 0

    def test_agent_aborts_on_tiny_budget(self, rc8):
        memo = ExplorerMemo()
        ticks, _ = plan_honest_run(rc8, 0, memo)
        run = RunSpec(
            tag=("t", 1),
            start_round=0,
            tick_budget=max(2, ticks // 4),
            agent_ids=frozenset({1}),
            token_ids=frozenset({2}),
        )
        w = World(rc8)
        out = {}
        w.add_robot(1, 0, lambda api: agent_program(api, run, out, memo))
        w.add_robot(2, 0, lambda api: token_program(api, run, {}))
        w.run(max_rounds=run.end_round + 5)
        assert out[run.tag] is None  # budget abort
        assert w.robots[1].node == 0  # but still home (footnote 11)
        assert w.robots[2].node == 0


def _logged(program, api, rounds):
    """``program``, logging the round of each of its resumes."""
    while True:
        rounds.append(api.round)
        try:
            action = next(program)
        except StopIteration:
            return
        yield action


class TestListenersAreNotResumed:
    """Listening robots yield ``Wait``: they count an activation in every
    round but their program is resumed only when there is news."""

    def test_token_beside_an_idle_agent(self, rc8):
        """Nobody commands the token, so in its active phase it is resumed
        at the run's start and at ``active_end`` (a ``Stay`` per round
        resumed it 2 * ``tick_budget`` times before ``active_end``)."""
        memo = ExplorerMemo()
        ticks, _ = plan_honest_run(rc8, 0, memo)
        run = RunSpec(
            tag=("t", 0), start_round=0, tick_budget=ticks + 2,
            agent_ids=frozenset({1}), token_ids=frozenset({2}),
        )
        resumed = []
        w = World(rc8)
        w.add_robot(1, 0, lambda api: idle(api, None), byzantine=True)
        w.add_robot(2, 0, lambda api: _logged(token_program(api, run, {}), api, resumed))
        assert w.run(max_rounds=run.end_round + 5)
        active_end = run.start_round + run.active_rounds
        assert [r for r in resumed if r <= active_end] == [run.start_round, active_end]
        # Every round still counts: the agent's rounds 0..end_round, the
        # token's rounds 0..active_end and its wake at end_round (it
        # sleeps in between, which counts nothing).
        assert w.round == run.end_round + 1
        assert w.activations == w.round + (run.active_rounds + 1) + 1

    def test_idle_robot_nobody_posts_to(self):
        resumed = []

        def ten_stays(api):
            for _ in range(10):
                yield STAY

        w = World(ring(4))
        w.add_robot(1, 0, lambda api: _logged(idle(api, None), api, resumed),
                    byzantine=True)
        w.add_robot(2, 2, ten_stays)
        assert w.run(max_rounds=50)
        assert resumed == [0]
        assert w.activations == 2 * w.round == 22


class TestRunSpecArithmetic:
    def test_slot_rounds(self):
        assert run_slot_rounds(10) == 20 + 12
        assert run_slot_rounds(10, exchange=True) == 20 + 12 + 2

    def test_end_round_consistency(self):
        run = RunSpec(
            tag=("x",), start_round=100, tick_budget=10,
            agent_ids=frozenset({1}), token_ids=frozenset({2}), exchange=True,
        )
        assert run.end_round == 100 + run_slot_rounds(10, exchange=True)
        assert run.exchange_round == run.end_round - 2


class _Walk:
    """Drive one explorer with truthful responses from ``graph``, except
    at the response indices in ``perturb`` (index -> kind): ``"flip"``
    inverts a check, ``"degree"`` reports a wrong degree, ``"arrival"``
    drops the arrival port.  Records every op and response, and how the
    explorer ended."""

    def __init__(self, explorer, graph, root, perturb, max_sends=3000):
        self.explorer = explorer
        self.graph = graph
        self.agent = self.token = root
        self.perturb = perturb
        self.max_sends = max_sends
        self.responses = [None]
        self.ops = []
        self.outcome = None

    def step(self) -> bool:
        """One ``send``; False once the walk has ended."""
        try:
            op = self.explorer.send(self.responses[-1])
        except StopIteration as stop:
            self.outcome = ("map", stop.value.port_table())
            return False
        except _MapOverflow:
            self.outcome = ("overflow",)
            return False
        except Exception as exc:  # noqa: BLE001 - compared with the reference
            self.outcome = ("raised", type(exc), str(exc))
            return False
        self.ops.append(op)
        graph = self.graph
        kind = self.perturb.get(len(self.responses))
        if op[0] == "check":
            response = self.agent == self.token
            if kind == "flip":
                response = not response
        else:
            _, self_port, token_port = op
            if self_port > graph.degree(self.agent):
                self.outcome = ("aborted",)  # agent_program's abort
                return False
            arrival = None
            if self_port:
                self.agent, arrival = graph.traverse_fast(self.agent, self_port)
            if token_port and token_port <= graph.degree(self.token):
                self.token, _ = graph.traverse_fast(self.token, token_port)
            degree = graph.degree(self.agent)
            if kind == "degree":
                degree = degree + 1 if degree < 3 else degree - 1
            elif kind == "arrival":
                arrival = None
            response = (degree, arrival)
        self.responses.append(response)
        if len(self.responses) > self.max_sends:
            self.outcome = ("budget",)
            return False
        return True


def _reference(n, root_degree, walk):
    """Feed a fresh explorer_core the walk's responses; return its ops and
    how it ended, in the walk's terms."""
    core = explorer_core(n, root_degree)
    ops = []
    for response in walk.responses:
        try:
            ops.append(core.send(response))
        except StopIteration as stop:
            return ops, ("map", stop.value.port_table())
        except _MapOverflow:
            return ops, ("overflow",)
        except Exception as exc:  # noqa: BLE001 - compared with the walk
            return ops, ("raised", type(exc), str(exc))
    return ops, walk.outcome  # still running: the walk stopped driving it


class TestExplorerMemo:
    @given(
        n=st.integers(4, 9),
        seed=st.integers(0, 40),
        roots=st.lists(st.integers(0, 8), min_size=2, max_size=5),
        perturbations=st.lists(
            st.dictionaries(
                st.integers(1, 400), st.sampled_from(["flip", "degree", "arrival"]),
                max_size=2,
            ),
            min_size=5, max_size=5,
        ),
        seed_with_dry_run=st.booleans(),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_cursors_replay_the_core_exactly(
        self, n, seed, roots, perturbations, seed_with_dry_run, order
    ):
        """Cursors on one memo, stepped in an interleaved order with mostly
        truthful responses, yield the ops and the ending of a fresh
        explorer_core fed the same responses."""
        graph = random_connected(n, seed=seed)
        memo = ExplorerMemo()
        if seed_with_dry_run:
            plan_honest_run(graph, roots[0] % n, memo)
        walks = []
        for i, root in enumerate(roots):
            root %= n
            cursor = memo.explorer(n, graph.degree(root))
            walks.append((root, _Walk(cursor, graph, root, perturbations[i])))
        live = [walk for _, walk in walks]
        while live:
            walk = order.choice(live)
            if not walk.step():
                live.remove(walk)
        for root, walk in walks:
            ops, outcome = _reference(n, graph.degree(root), walk)
            assert walk.ops == ops
            assert walk.outcome == outcome

    @pytest.mark.parametrize("solve", [solve_theorem3, solve_theorem4, solve_theorem6])
    def test_one_core_per_honest_solve(self, solve, monkeypatch):
        """With no Byzantine robot every agent's history is the dry run's,
        so a whole solve runs explorer_core once.  Every robot then elects
        the same map, so the solve decodes it once and, where dispersion
        walks an Euler tour (not Theorem 6's rank dispersion), builds
        that tour once."""
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(token_mapping, "explorer_core", counting("core", explorer_core))
        monkeypatch.setattr(
            token_mapping, "decode_canonical",
            counting("decode", token_mapping.decode_canonical),
        )
        monkeypatch.setattr(traversal, "_dfs_tour", counting("tour", traversal._dfs_tour))
        rep = solve(random_connected(8, seed=3), f=0)
        assert rep.success
        assert calls["core"] == 1
        assert calls["decode"] == 1
        assert calls["tour"] == (0 if solve is solve_theorem6 else 1)

    def test_decode_once_per_encoding_until_clear(self, monkeypatch):
        decoded = []

        def counting(encoding):
            decoded.append(encoding)
            return decode_canonical(encoding)

        monkeypatch.setattr(token_mapping, "decode_canonical", counting)
        memo = ExplorerMemo()
        ring_enc = canonical_form(ring(6), 0)
        clique_enc = canonical_form(clique(5), 0)
        first = memo.decode(ring_enc)
        assert memo.decode(ring_enc) is first
        assert canonical_form(first, 0) == ring_enc
        assert canonical_form(memo.decode(clique_enc), 0) == clique_enc
        assert decoded == [ring_enc, clique_enc]
        memo.clear()  # drops the decoded maps with the trie
        again = memo.decode(ring_enc)
        assert again is not first and again == first
        assert decoded == [ring_enc, clique_enc, ring_enc]
