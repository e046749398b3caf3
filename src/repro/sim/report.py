"""Structured run reports and the Definition-1 check.

:class:`RunReport` is the uniform result object every algorithm entry
point returns; it separates *simulated* rounds (the scheduler actually
stepped them) from *charged* rounds (oracle phases priced by the paper's
cited bounds — see EXPERIMENTS.md, "What is simulated and what is
charged") and carries the validation verdict.
:func:`dispersion_violations` is the one place that verdict is computed:
:func:`finish_report` applies it to live worlds, the batched engine to
its struct-of-arrays state, and tests to plain ``robot -> node`` maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .world import World

__all__ = [
    "RunReport",
    "dispersion_violations",
    "finish_report",
    "settlement_histogram",
]


@dataclass
class RunReport:
    """Outcome of one Byzantine-dispersion run.

    Attributes
    ----------
    success:
        True iff every honest robot terminated settled AND no two honest
        robots settled on the same node (Definition 1).
    rounds_simulated / rounds_charged / rounds_total:
        Scheduler-stepped rounds, oracle-charged rounds, and their sum
        (the figure the paper's Table 1 bounds).
    settled:
        ``true_id -> node`` for honest robots that settled (node is the
        simulator's true name; tests compare these for collisions).
    violations:
        Human-readable reasons when ``success`` is False.
    phases:
        ``(label, rounds)`` per charged phase, in order.
    meta:
        Free-form algorithm-specific extras (e.g. maps agreed, group
        assignment, blacklist sizes; a non-default activation scheduler
        records its canonical spec under ``meta["scheduler"]``).
    activations:
        Total activations across the run (the world's tally): one per
        robot per round in which it was awake (and, under a
        non-default :mod:`~repro.sim.schedulers` scheduler, activated),
        including the rounds a :class:`~repro.sim.robot.Wait` spares
        its program the resume.  Sleeping robots are not counted, so
        this is not live-robot-rounds.
    """

    success: bool
    rounds_simulated: int
    rounds_charged: int
    settled: Dict[int, Optional[int]]
    violations: List[str] = field(default_factory=list)
    phases: List[Tuple[str, int]] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)
    activations: int = 0

    @property
    def rounds_total(self) -> int:
        return self.rounds_simulated + self.rounds_charged


def settlement_histogram(settled: Dict[int, Optional[int]]) -> Dict[int, List[int]]:
    """Group settled robot IDs by node (``None`` positions are skipped)."""
    by_node: Dict[int, List[int]] = {}
    for rid, node in settled.items():
        if node is not None:
            by_node.setdefault(node, []).append(rid)
    return {node: sorted(rids) for node, rids in by_node.items()}


def dispersion_violations(
    settled: Dict[int, Optional[int]],
    honest_cap: int = 1,
    not_done: Iterable[int] = (),
    require_all_settled: bool = True,
) -> List[str]:
    """All reasons a configuration fails (modified) Byzantine dispersion.

    Definition 1: every honest robot settled, and no node holds more than
    ``honest_cap`` honest settlers (1 in the paper's primary setting;
    ``⌈(k−f)/n⌉`` in the Section 5 ``k``-robot variant).  ``settled``
    maps **honest** robot IDs to nodes (``None`` = unsettled);
    ``not_done`` names honest robots that neither settled nor terminated.
    """
    if honest_cap < 1:
        raise ConfigurationError("honest_cap must be >= 1")
    violations: List[str] = []
    if require_all_settled:
        unsettled = sorted(rid for rid, node in settled.items() if node is None)
        if unsettled:
            violations.append(f"honest robots never settled: {unsettled}")
    for node, rids in sorted(settlement_histogram(settled).items()):
        if len(rids) > honest_cap:
            violations.append(
                f"node {node} hosts {len(rids)} honest settlers (cap {honest_cap}): {rids}"
            )
    stuck = sorted(not_done)
    if stuck:
        violations.append(f"honest robots neither settled nor terminated: {stuck}")
    return violations


def finish_report(
    world: World,
    extra_violations: Optional[List[str]] = None,
    honest_cap: int = 1,
    **meta,
) -> RunReport:
    """Assemble a :class:`RunReport` from a finished world, applying
    Definition 1 through :func:`dispersion_violations`."""
    settled = world.honest_settled_positions()
    # A settled robot counts as done even if its program keeps running
    # (e.g. baseline landmarks that guide forever); an *unsettled* robot
    # must have terminated for the run to be complete.
    not_done = [
        rid
        for rid, r in world.robots.items()
        if not r.byzantine and not r.terminated and r.settled_node is None
    ]
    violations = list(extra_violations or [])
    violations += dispersion_violations(settled, honest_cap, not_done)
    return RunReport(
        success=not violations,
        rounds_simulated=world.round,
        rounds_charged=world.charged_rounds,
        settled=settled,
        violations=violations,
        phases=list(world.charged),
        meta=dict(meta),
        activations=world.activations,
    )
