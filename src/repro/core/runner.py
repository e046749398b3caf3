"""Table 1 registry: one entry per row of the paper's results table.

Benchmarks, sweeps and the EXPERIMENTS harness iterate this registry so
that "reproduce Table 1" is a loop, not seven hand-written scripts.  Each
row knows its solver (normalised signature), its tolerance bound, the
paper's asymptotic round bound (evaluated with constant 1 for shape
comparison), its starting configuration, and whether it handles strong
Byzantine robots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..gathering.oracle import (
    hirose_gathering_rounds,
    strong_gathering_rounds,
    weak_gathering_rounds,
)
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.quotient import is_quotient_isomorphic
from ..sim.ids import assign_ids
from ..sim.report import RunReport
from .find_map import find_map_rounds
from .general_graphs import (
    half_f_max,
    solve_theorem2,
    solve_theorem3,
    solve_theorem4,
    solve_theorem5,
    sqrt_f_max,
    third_f_max,
)
from .quotient_algorithm import solve_theorem1, theorem1_f_max
from .strong_byzantine import quarter_f_max, solve_theorem6, solve_theorem7

__all__ = ["Table1Row", "TABLE1", "get_row", "row_applicable"]

Solver = Callable[..., RunReport]


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table 1 with everything needed to rerun it.

    ``paper_bound(graph, f)`` evaluates the stated asymptotic bound with
    constant 1 (exact integers; exponential rows get huge ints, which is
    the point).  ``f_max(graph)`` is the row's Byzantine tolerance.
    """

    serial: int
    theorem: int
    running_time: str
    start: str  # "Arbitrary" | "Gathered"
    tolerance: str
    strong: bool
    solver: Solver
    f_max: Callable[[PortLabeledGraph], int]
    paper_bound: Callable[[PortLabeledGraph, int], int]
    note: str = ""


def _ids(graph: PortLabeledGraph) -> List[int]:
    return assign_ids(graph.n, n_nodes=graph.n)


def _bound_row1(g: PortLabeledGraph, f: int) -> int:
    return find_map_rounds(g.n, g.m) + 2 * g.n + 2


def _bound_row2(g: PortLabeledGraph, f: int) -> int:
    # |Λgood| depends on *which* IDs are honest; the registry formula uses
    # the default convention (the f lowest IDs corrupted).  Other Byzantine
    # placements change the charge by at most one bit-length factor.
    honest = _ids(g)[f:]
    return weak_gathering_rounds(g, honest if honest else _ids(g))


def _bound_row3(g: PortLabeledGraph, f: int) -> int:
    return hirose_gathering_rounds(g, _ids(g), f)


def _bound_row4(g: PortLabeledGraph, f: int) -> int:
    return g.n**4


def _bound_row5(g: PortLabeledGraph, f: int) -> int:
    return g.n**3


def _bound_row6(g: PortLabeledGraph, f: int) -> int:
    return strong_gathering_rounds(g)


def _bound_row7(g: PortLabeledGraph, f: int) -> int:
    return g.n**3


# Each ``solver`` looks its driver up in this module's globals at call
# time, so anything that swaps the module attribute (a tracer, a mock)
# sees every row's calls; a driver stored in the row itself would not.
TABLE1: List[Table1Row] = [
    Table1Row(
        serial=1, theorem=1, running_time="polynomial(n)", start="Arbitrary",
        tolerance="n-1", strong=False,
        solver=lambda graph, **kw: solve_theorem1(graph, **kw),
        f_max=theorem1_f_max,
        paper_bound=_bound_row1,
        note="graphs with quotient graph isomorphic to the graph",
    ),
    Table1Row(
        serial=2, theorem=2, running_time="O(n^4 |L_good| X(n))", start="Arbitrary",
        tolerance="floor(n/2)-1", strong=False,
        solver=lambda graph, **kw: solve_theorem2(graph, **kw),
        f_max=half_f_max,
        paper_bound=_bound_row2,
    ),
    Table1Row(
        serial=3, theorem=5, running_time="O((f+|L_all|) X(n))", start="Arbitrary",
        tolerance="O(sqrt(n))", strong=False,
        solver=lambda graph, **kw: solve_theorem5(graph, **kw),
        f_max=sqrt_f_max,
        paper_bound=_bound_row3,
    ),
    Table1Row(
        serial=4, theorem=3, running_time="O(n^4)", start="Gathered",
        tolerance="floor(n/2)-1", strong=False,
        solver=lambda graph, **kw: solve_theorem3(graph, **kw),
        f_max=half_f_max,
        paper_bound=_bound_row4,
    ),
    Table1Row(
        serial=5, theorem=4, running_time="O(n^3)", start="Gathered",
        tolerance="floor(n/3)-1", strong=False,
        solver=lambda graph, **kw: solve_theorem4(graph, **kw),
        f_max=third_f_max,
        paper_bound=_bound_row5,
    ),
    Table1Row(
        serial=6, theorem=7, running_time="exponential(n)", start="Arbitrary",
        tolerance="floor(n/4)-1", strong=True,
        solver=lambda graph, **kw: solve_theorem7(graph, **kw),
        f_max=quarter_f_max,
        paper_bound=_bound_row6,
        note="requires robots to know f",
    ),
    Table1Row(
        serial=7, theorem=6, running_time="O(n^3)", start="Gathered",
        tolerance="floor(n/4)-1", strong=True,
        solver=lambda graph, **kw: solve_theorem6(graph, **kw),
        f_max=quarter_f_max,
        paper_bound=_bound_row7,
    ),
]


def get_row(serial: int) -> Table1Row:
    """Fetch a Table 1 row by its serial number (1–7)."""
    for row in TABLE1:
        if row.serial == serial:
            return row
    raise KeyError(f"Table 1 has rows 1..7, not {serial}")


def row_applicable(row: Table1Row, graph: PortLabeledGraph) -> bool:
    """Whether the row's graph-class restriction admits ``graph``."""
    if row.serial == 1:
        return is_quotient_isomorphic(graph)
    return True
