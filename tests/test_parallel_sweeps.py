"""Parallel sweep execution: identical records, deterministic order.

The plan executor fans a grid's cells out over processes when
``workers > 1``; the contract is that the returned record list is
*exactly* the serial one (same order, same values).  Also covers the
tolerance kind's narrowed exception handling: only the repro error
hierarchy is a legitimate "rejected" outcome — anything else is an
engine bug and must propagate.

Graph dispatch has two wire formats: generator-built graphs ship as
their :class:`GraphSpec` (resolved through a per-worker memo cache);
spec-less graphs — hand-built ones, or a ``PortLabeledGraph`` rebuilt
from a generator graph's port table — are pickled whole.  Both must
return records identical to serial, and to each other.
"""

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import _cell_records, _wire_cell
from repro.core import get_row
from repro.core.runner import Table1Row
from repro.errors import ConfigurationError
from repro.graphs import GraphSpec, PortLabeledGraph, random_connected, spec_of
from repro.scenarios import Scenario, grid, scaling_grid, table1_grid, tolerance_grid


@pytest.fixture(scope="module")
def g():
    return random_connected(8, seed=5)


@pytest.fixture(scope="module")
def spec_less(g):
    """``g`` without its spec: the same graph, shipped pickled."""
    copy = PortLabeledGraph(g.port_table())
    assert copy == g and spec_of(copy) is None
    return copy


class TestParallelMatchesSerial:
    def test_run_table1(self, g):
        plan = table1_grid(g, ["squatter", "idle"], serials=[4, 5])
        assert plan.run(workers=2) == plan.run()

    def test_tolerance_sweep(self, g):
        plan = tolerance_grid(5, g, [0, 1, 2], "squatter")
        assert plan.run(workers=3) == plan.run()

    def test_scaling_sweep(self):
        graphs = [random_connected(n, seed=1) for n in (6, 8)]
        plan = scaling_grid(5, graphs, "idle")
        assert plan.run(workers=2) == plan.run()

    def test_strategy_matrix(self, g):
        plan = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"], f="max")
        assert plan.run(workers=2) == plan.run()

    def test_workers_one_is_serial(self, g):
        plan = table1_grid(g, ["idle"], serials=[5])
        assert plan.run(workers=1) == plan.run()


class TestSpecDispatch:
    """Spec-shipped parallel runs must equal serial runs AND the
    graph-pickling runs of a spec-less copy of the same graph."""

    def test_generator_graph_ships_as_spec(self, g):
        scenario = Scenario(5, g, "idle", kind="tolerance", f=1)
        wire = _wire_cell(scenario)
        assert isinstance(wire.graph, GraphSpec)
        assert wire.graph == spec_of(g)
        assert wire == scenario and wire.key() == scenario.key()
        # Each scaling graph appears in one cell only: it ships whole.
        scaling = Scenario(5, g, "idle", kind="scaling", f=1)
        assert _wire_cell(scaling) is scaling

    def test_hand_built_graph_ships_whole(self, spec_less):
        hand_built = PortLabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert spec_of(hand_built) is None
        for graph in (hand_built, spec_less):
            scenario = Scenario(5, graph, "idle")
            assert _wire_cell(scenario) is scenario

    def test_run_table1_spec_vs_pickled_vs_serial(self, g, spec_less):
        serial = table1_grid(g, ["squatter"], serials=[4, 5]).run()
        spec_shipped = table1_grid(g, ["squatter"], serials=[4, 5]).run(workers=2)
        graph_shipped = table1_grid(spec_less, ["squatter"], serials=[4, 5]).run(workers=2)
        assert spec_shipped == serial
        assert graph_shipped == serial

    def test_tolerance_sweep_spec_vs_pickled_vs_serial(self, g, spec_less):
        serial = tolerance_grid(5, g, [0, 1, 2], "squatter").run()
        spec_shipped = tolerance_grid(5, g, [0, 1, 2], "squatter").run(workers=3)
        graph_shipped = tolerance_grid(5, spec_less, [0, 1, 2], "squatter").run(workers=3)
        assert spec_shipped == serial
        assert graph_shipped == serial

    def test_scaling_sweep_mixed_payloads(self):
        """A sweep mixing generator graphs (spec) and hand-built graphs
        (pickled) must still match serial exactly."""
        graphs = [
            random_connected(6, seed=1),
            PortLabeledGraph.from_edges(
                8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)]
            ),
        ]
        assert spec_of(graphs[0]) is not None and spec_of(graphs[1]) is None
        plan = scaling_grid(5, graphs, "idle")
        assert plan.run(workers=2) == plan.run()

    def test_strategy_matrix_spec_vs_serial(self, g):
        plan = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"], f="max")
        assert plan.run(workers=2) == plan.run()


def _fake_row(solver):
    return Table1Row(
        serial=1,  # a registry serial, but NOT the registry object
        theorem=1,
        running_time="test",
        start="Gathered",
        tolerance="0",
        strong=False,
        solver=solver,
        f_max=lambda graph: 1,
        paper_bound=lambda graph, f: 1,
    )


class TestToleranceExceptionNarrowing:
    """A tolerance cell records a rejection only for the repro error
    hierarchy; the solver is swapped via the row lookup the cell runs."""

    def _run(self, monkeypatch, g, solver, f_values):
        monkeypatch.setattr(experiments, "get_row", lambda serial: _fake_row(solver))
        return [
            rec
            for f in f_values
            for rec in _cell_records(
                Scenario(1, g, "idle", kind="tolerance", seed=0, f=f))
        ]

    def test_repro_errors_recorded_as_rejected(self, g, monkeypatch):
        def rejecting_solver(graph, f, adversary, seed):
            raise ConfigurationError("f out of range")

        recs = self._run(monkeypatch, g, rejecting_solver, [0, 1])
        assert [r["rejected"] for r in recs] == [True, True]
        assert all(r["reason"] == "ConfigurationError" for r in recs)

    def test_engine_bugs_propagate(self, g, monkeypatch):
        """A TypeError from a solver is a bug, not an out-of-bound f; the
        old bare `except Exception` silently recorded it as rejected."""

        def buggy_solver(graph, f, adversary, seed):
            raise TypeError("engine bug")

        with pytest.raises(TypeError, match="engine bug"):
            self._run(monkeypatch, g, buggy_solver, [0])

    def test_other_kinds_propagate_rejections(self, g):
        """Only the tolerance kind records a rejection; a table1 cell
        beyond the row's bound raises the driver's error."""
        beyond = get_row(4).f_max(g) + 1
        with pytest.raises(ConfigurationError):
            _cell_records(Scenario(4, g, "idle", seed=0, f=beyond))
