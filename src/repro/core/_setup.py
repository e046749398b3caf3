"""Shared driver plumbing: placements, populations, world assembly.

Every driver in :mod:`repro.core` and :mod:`repro.baselines` goes
through these helpers so experiment configuration (who is Byzantine,
where robots start, which strategy runs) and world assembly (charged
phases, robots, scheduler, report) are uniform across algorithms and
sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError, ReproError
from ..graphs.port_labeled import PortLabeledGraph
from ..sim.ids import assign_ids, validate_ids
from ..sim.report import RunReport, finish_report
from ..sim.schedulers import canonical_scheduler
from ..sim.world import World

__all__ = [
    "Population",
    "build_population",
    "make_placement",
    "round_budget",
    "run_population",
    "uniform_starts",
]


def round_budget(bound: int, max_rounds: Optional[int]) -> int:
    """The driver's simulated-round budget.

    Every solver computes its own termination ``bound``; an optional
    caller-supplied ``max_rounds`` (a :class:`~repro.scenarios.Scenario`
    round budget) can only *cap* it — the algorithm is finished by its
    bound anyway, so a larger budget never buys extra rounds.  A run that
    exhausts a smaller budget reports ``success=False`` rather than
    raising.
    """
    if max_rounds is None:
        return bound
    if max_rounds < 0:
        raise ConfigurationError(f"round budget must be >= 0, got {max_rounds}")
    return min(bound, max_rounds)


def uniform_starts(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Start nodes of ``count`` robots in id order, each uniform over the
    ``n`` nodes: the ``"arbitrary"`` placement, which the per-cell
    drivers and the batch engine both draw from ``default_rng(seed)``.

    One ``integers(0, n, size=count)`` call gives the values of ``count``
    scalar ``integers(0, n)`` calls and leaves ``rng`` in the same state
    (``tests/test_setup_trace.py::TestUniformStarts`` pins both), in
    less than half the time for 16 robots.
    """
    return rng.integers(0, n, size=count)


def make_placement(
    graph: PortLabeledGraph,
    ids: Sequence[int],
    start: Union[str, int, Dict[int, int]],
    seed: int = 0,
) -> Dict[int, int]:
    """Resolve a start specification into ``true_id -> node``.

    * ``"arbitrary"`` — independent uniform nodes (robots may share).
    * ``"gathered"`` or an ``int`` node — everyone on one node.
    * ``"spread"`` — distinct nodes round-robin (needs ``len(ids) <= n``).
    * explicit dict — used as-is after validation.
    """
    n = graph.n
    if isinstance(start, dict):
        for rid, node in start.items():
            if not (0 <= node < n):
                raise ConfigurationError(f"placement of robot {rid}: node {node} out of range")
        missing = set(ids) - set(start)
        if missing:
            raise ConfigurationError(f"placement missing robots: {sorted(missing)}")
        return {rid: start[rid] for rid in ids}
    if isinstance(start, int):
        if not (0 <= start < n):
            raise ConfigurationError(f"gather node {start} out of range")
        return {rid: start for rid in ids}
    if start == "gathered":
        return {rid: 0 for rid in ids}
    if start == "arbitrary":
        nodes = uniform_starts(np.random.default_rng(seed), n, len(ids))
        return dict(zip(ids, nodes.tolist()))
    if start == "spread":
        if len(ids) > n:
            raise ConfigurationError("spread placement needs at most n robots")
        return {rid: i for i, rid in enumerate(sorted(ids))}
    raise ConfigurationError(f"unknown start spec {start!r}")


class Population:
    """Resolved robot population for one run.

    Attributes
    ----------
    ids / honest_ids / byz_ids:
        All, honest-only, Byzantine-only true IDs (ascending).
    placement:
        ``true_id -> start node``.
    adversary:
        The :class:`~repro.byzantine.adversary.Adversary` controlling the
        corrupted robots.
    """

    def __init__(
        self,
        ids: List[int],
        byz_ids: List[int],
        placement: Dict[int, int],
        adversary: Adversary,
    ):
        self.ids = sorted(ids)
        self.byz_ids = sorted(byz_ids)
        self.honest_ids = sorted(set(ids) - set(byz_ids))
        self.placement = placement
        self.adversary = adversary

    @property
    def f(self) -> int:
        return len(self.byz_ids)


def build_population(
    graph: PortLabeledGraph,
    f: int,
    start: Union[str, int, Dict[int, int]] = "arbitrary",
    adversary: Optional[Adversary] = None,
    n_robots: Optional[int] = None,
    byz_placement: str = "lowest",
    seed: int = 0,
) -> Population:
    """Standard population for the paper's setting: ``n`` robots, ``f`` Byzantine.

    ``n_robots`` defaults to ``graph.n`` (the paper's primary regime);
    Section 5 experiments override it.
    """
    k = n_robots if n_robots is not None else graph.n
    ids = assign_ids(k, n_nodes=graph.n)
    validate_ids(ids, graph.n)
    # The placement RNG is the adversary's: who gets corrupted is the
    # adversary's choice, so Adversary(seed=...) alone pins it (sweeps
    # pass adversaries seeded with the run seed, which keeps their
    # records unchanged).
    adversary = adversary if adversary is not None else Adversary(seed=seed)
    byz_ids = adversary.choose_ids(ids, f, placement=byz_placement)
    placement = make_placement(graph, ids, start, seed=seed)
    return Population(
        ids=ids,
        byz_ids=byz_ids,
        placement=placement,
        adversary=adversary,
    )


def run_population(
    graph: PortLabeledGraph,
    pop: Population,
    honest_factory: Callable[[int, int], Callable],
    max_rounds: int,
    model: str = "weak",
    pre_charges: Sequence = (),
    scheduler=None,
    until: Optional[Callable[[World], bool]] = None,
    honest_cap: int = 1,
    **meta,
) -> RunReport:
    """Assemble, run and report one world: every driver's shared body.

    Charges ``pre_charges`` (``(label, rounds)`` oracle phases) in order,
    then places each robot of ``pop``: the adversary's program for
    Byzantine IDs, ``honest_factory(rid, node)`` for the rest.  The world
    runs at most ``max_rounds`` simulated rounds (or until
    ``until(world)``); the report adds ``f``, ``n``, the strategy and the
    Byzantine IDs to ``meta``.

    A non-default activation ``scheduler`` (see
    :mod:`repro.sim.schedulers`) is seeded from the adversary, records
    its canonical spec in the report meta, and runs *guarded*: the
    paper's protocols assume synchrony, so a timing-induced protocol
    breakdown (any :class:`~repro.errors.ReproError` out of the round
    loop) is recorded as a violation in a failed report instead of
    crashing the sweep.  The synchronous default (``None`` or any spec
    canonicalising to ``"synchronous"``) takes the world's scheduler-free
    fast path, so reports stay byte-identical to the historical ones,
    and runs unguarded: there an exception is an engine or program bug.
    """
    canon = canonical_scheduler(scheduler)
    if canon == "synchronous":
        scheduler = None
    world = World(
        graph, model=model, scheduler=scheduler, scheduler_seed=pop.adversary.seed,
    )
    for label, rounds in pre_charges:
        world.charge(label, rounds)
    byz = set(pop.byz_ids)
    for rid in pop.ids:
        node = pop.placement[rid]
        if rid in byz:
            world.add_robot(rid, node, pop.adversary.program_factory(rid), byzantine=True)
        else:
            world.add_robot(rid, node, honest_factory(rid, node), byzantine=False)
    extra: List[str] = []
    if scheduler is None:
        world.run(max_rounds=max_rounds, until=until)
    else:
        meta["scheduler"] = canon
        try:
            world.run(max_rounds=max_rounds, until=until)
        except ReproError as exc:
            extra.append(f"scheduler-induced protocol breakdown: {type(exc).__name__}: {exc}")
    return finish_report(
        world,
        extra_violations=extra,
        honest_cap=honest_cap,
        f=pop.f,
        n=graph.n,
        strategy=pop.adversary.describe(),
        byz_ids=pop.byz_ids,
        **meta,
    )
