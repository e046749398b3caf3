"""Theorems 6–7: strong Byzantine robots (paper Section 4).

Strong Byzantine robots fake IDs, so every ID-trusting mechanism of
Sections 2–3 (blacklists, per-ID map votes) is poisoned.  Section 4's
counter-design is the ``"two_groups_strong"`` scheme of the shared
gathered-start body in :mod:`repro.core.general_graphs`:

* **Quorums instead of identities.**  Two half groups run one mapping run
  with both believe-thresholds at ``⌊n/4⌋`` *distinct claimed IDs*.  Each
  group contains at least ``⌊n/4⌋`` honest robots (``f ≤ ⌊n/4−1⌋``), so
  honest quorums always form and Byzantine ones never do — duplicated IDs
  collapse in the distinct count.
* **Rank dispersion instead of negotiation.**  With a common map and the
  remembered gathered roster, robot ranked ``i`` walks to the ``i``-th
  node of the canonical BFS order and settles.  Honest robots hold
  distinct ranks, so no negotiation — hence nothing to lie in — is needed.

Theorem 6: gathered start, O(n³).  Theorem 7: arbitrary start via the
exponential-round strong gathering of [24] (oracle charge; requires ``f``
to be known, which the driver asserts by taking it as input).
"""

from __future__ import annotations

from typing import Optional

from ..byzantine.adversary import Adversary
from ..errors import ConfigurationError
from ..gathering.oracle import canonical_gather_node, strong_gathering_rounds
from ..graphs.port_labeled import PortLabeledGraph
from ..sim.report import RunReport
from .general_graphs import STRONG_SCHEME, _gathered_solver

__all__ = ["solve_theorem6", "solve_theorem7"]


def quarter_f_max(graph: PortLabeledGraph) -> int:
    """Theorems 6–7's tolerance ``⌊n/4−1⌋``."""
    return max(graph.n // 4 - 1, 0)


def solve_theorem6(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    gather_node: int = 0,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 6: gathered start, ``f ≤ ⌊n/4−1⌋`` **strong** Byzantine, O(n³)."""
    _check(graph, f)
    return _gathered_solver(
        graph, f, adversary, gather_node, seed, byz_placement, STRONG_SCHEME, theorem=6,
        max_rounds=max_rounds, scheduler=scheduler,
    )


def solve_theorem7(
    graph: PortLabeledGraph,
    f: int = 0,
    adversary: Optional[Adversary] = None,
    seed: int = 0,
    byz_placement: str = "lowest",
    max_rounds: Optional[int] = None,
    scheduler=None,
) -> RunReport:
    """Theorem 7: arbitrary start, ``f ≤ ⌊n/4−1⌋`` strong, exponential rounds.

    Phase 0 is [24]'s strong gathering (knowledge of ``f`` required —
    reflected by ``f`` being a driver input), charged exponentially and
    enacted at the canonical gather node; the rest equals Theorem 6.
    """
    _check(graph, f)
    return _gathered_solver(
        graph, f, adversary, canonical_gather_node(graph), seed, byz_placement,
        STRONG_SCHEME, theorem=7,
        charge=lambda pop: ("gathering_dpp_strong", strong_gathering_rounds(graph)),
        max_rounds=max_rounds, scheduler=scheduler,
    )


def _check(graph: PortLabeledGraph, f: int) -> None:
    if not graph.is_connected():
        raise ConfigurationError("dispersion requires a connected graph")
    if graph.n < 4:
        raise ConfigurationError("strong-Byzantine dispersion needs n >= 4")
    f_max = quarter_f_max(graph)
    if not (0 <= f <= f_max):
        raise ConfigurationError(f"Theorems 6/7 tolerate 0 <= f <= {f_max}, got f={f}")
