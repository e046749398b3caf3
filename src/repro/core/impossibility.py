"""Theorem 8 (paper Section 5) as an executable adversarial construction.

Claim: with ``k`` robots (``f`` Byzantine) on ``n`` nodes, no
deterministic algorithm solves the modified Byzantine dispersion
(≤ ``⌈(k−f)/n⌉`` honest robots per node) when
``⌈k/n⌉ > ⌈(k−f)/n⌉`` — even against *weak* Byzantine robots, even
knowing ``n, k, f``.

The proof is a two-execution indistinguishability argument, and because
our simulator is deterministic we can *run* it against any concrete
algorithm:

1. **Execution 1** — all ``k`` robots honest.  Some node ``w`` ends with
   ``⌈k/n⌉`` settlers (pigeonhole).
2. **Execution 2** — keep the ``⌈k/n⌉`` robots that settled at ``w``
   honest; corrupt ``f`` of the others and have them *behave exactly as
   in execution 1* (a legal weak-Byzantine strategy).  Determinism makes
   the executions indistinguishable, so the same ``⌈k/n⌉`` — now all
   honest — stack up on ``w``, exceeding the ``⌈(k−f)/n⌉`` cap.

:func:`demonstrate_impossibility` performs both executions with the
capacity-DFS baseline (any deterministic algorithm exhibits the bound)
and returns the machine-checked violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..baselines.dfs_dispersion import solve_dfs_baseline
from ..errors import ConfigurationError
from ..graphs.port_labeled import PortLabeledGraph
from ..sim.report import RunReport

__all__ = ["ImpossibilityReport", "impossibility_applies", "demonstrate_impossibility"]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def impossibility_applies(n: int, k: int, f: int) -> bool:
    """Theorem 8's condition: ``⌈k/n⌉ > ⌈(k−f)/n⌉``."""
    if k < 1 or f < 0 or f > k or n < 1:
        raise ConfigurationError("need k >= 1, 0 <= f <= k, n >= 1")
    return _ceil_div(k, n) > _ceil_div(k - f, n)


@dataclass
class ImpossibilityReport:
    """Outcome of the two-execution construction.

    ``violated`` is True when execution 2 left more than
    ``⌈(k−f)/n⌉`` *honest* settlers on some node — the contradiction the
    theorem predicts whenever ``applies`` is True.
    """

    n: int
    k: int
    f: int
    applies: bool
    cap_all: int            # ⌈k/n⌉
    cap_required: int       # ⌈(k−f)/n⌉
    crowded_node: Optional[int]
    honest_at_crowded: int
    violated: bool
    exec1: RunReport
    exec2: RunReport


def demonstrate_impossibility(
    graph: PortLabeledGraph,
    k: int,
    f: int,
    seed: int = 0,
) -> ImpossibilityReport:
    """Run the Theorem 8 construction against the capacity-DFS algorithm.

    The choice of algorithm is immaterial to the theorem (the argument
    quantifies over all deterministic algorithms); the capacity-DFS
    baseline is used because it genuinely disperses ``k > n`` honest
    robots, making execution 1 representative.
    """
    n = graph.n
    applies = impossibility_applies(n, k, f)
    cap_all = _ceil_div(k, n)
    cap_required = _ceil_div(max(k - f, 0), n)

    # Execution 1: all honest, capacity ⌈k/n⌉.
    exec1 = solve_dfs_baseline(graph, k=k, f=0, cap=cap_all, seed=seed)
    by_node: Dict[int, List[int]] = {}
    for rid, node in exec1.settled.items():
        if node is not None:
            by_node.setdefault(node, []).append(rid)
    crowded = max(by_node.items(), key=lambda kv: (len(kv[1]), -kv[0]), default=None)
    if crowded is None:
        raise ConfigurationError("execution 1 settled nobody — baseline failure")
    crowded_node, crowd = crowded
    crowd = sorted(crowd)[:cap_all]

    # Execution 2: corrupt f robots outside the crowd; strategy = behave
    # exactly as honest robots do (the simulator runs the same program,
    # only flagged Byzantine — legal for weak Byzantine robots).
    others = [rid for rid in sorted(exec1.settled) if rid not in set(crowd)]
    if len(others) < f:
        raise ConfigurationError(
            f"cannot corrupt f={f} robots outside the crowded node's settlers"
        )
    byz_ids = others[:f]

    from ..byzantine.adversary import Adversary
    from ..baselines.dfs_dispersion import dfs_dispersion_program

    def honest_mimic(api, rng, _cap=cap_all):
        # Weak-Byzantine legality: runs the honest program verbatim.
        return dfs_dispersion_program(api, _cap)

    exec2 = solve_dfs_baseline(
        graph,
        k=k,
        cap=cap_all,
        byz_ids=byz_ids,
        adversary=Adversary(honest_mimic, seed=seed),
        seed=seed,
    )
    honest_at = [
        rid for rid, node in exec2.settled.items() if node == crowded_node
    ]
    violated = len(honest_at) > cap_required
    return ImpossibilityReport(
        n=n,
        k=k,
        f=f,
        applies=applies,
        cap_all=cap_all,
        cap_required=cap_required,
        crowded_node=crowded_node,
        honest_at_crowded=len(honest_at),
        violated=violated,
        exec1=exec1,
        exec2=exec2,
    )
