"""The declarative Scenario API: canonical keys, serialization, grids.

The contracts under test:

* ``Scenario.key()`` is *definitionally* the run-store cell key — the
  scenario that describes a cell addresses its cache entry (pinned
  against ``store.cell_key`` called with explicit arguments and against
  a golden key file, so an accidental canonicalisation change is caught
  even if both sides drift together);
* ``to_dict → from_dict → key`` is a fixed point, including through an
  actual JSON byte round-trip, for spec-built and hand-built graphs;
* ``grid(...)`` expansion is deterministic with a documented axis order
  (rows, graphs, strategies, f, schedulers, seeds — rows outermost);
* the grid presets return result sets whose records are identical in
  serial, parallel, and warm-store modes (every record kind is pinned
  byte for byte in ``tests/test_record_golden.py``);
* round budgets and non-default placements change behaviour AND keys,
  while default values leave keys bit-identical to the PR-3 form;
* ``repro scenario FILE.json`` hits the same store cell as the
  equivalent ``repro sweep`` invocation.
"""

import json
import pathlib

import pytest

from repro.analysis import RunStore, cell_key
from repro.byzantine import Adversary
from repro.cli import main as cli_main
from repro.core import TABLE1, get_row
from repro.errors import ConfigurationError, ValidationError
from repro.graphs import (
    GraphSpec,
    PortLabeledGraph,
    graph_fingerprint,
    random_connected,
    ring,
    spec_of,
)
from repro.scenarios import (
    ResultSet,
    Scenario,
    ScenarioGrid,
    grid,
    run_scenarios,
    scaling_grid,
    table1_grid,
    tolerance_grid,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "scenario_golden_keys.json"


@pytest.fixture(scope="module")
def g():
    return random_connected(8, seed=5)


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


class TestNormalization:
    def test_algorithm_forms_converge(self, g):
        base = Scenario(algorithm=4, graph=g)
        assert Scenario(algorithm="4", graph=g) == base
        # Row 4 implements Theorem 3: name resolution is by *theorem*.
        assert Scenario(algorithm="theorem3", graph=g) == base
        assert Scenario(algorithm="solve_theorem3", graph=g) == base
        assert Scenario(algorithm=get_row(4), graph=g) == base
        assert base.serial == 4 and base.row is get_row(4)

    def test_unknown_algorithm_rejected(self, g):
        for bad in (0, 8, "theorem99", "nope", 2.5):
            with pytest.raises(ConfigurationError):
                Scenario(algorithm=bad, graph=g)

    def test_hand_built_row_rejected(self, g):
        """A non-registry Table1Row must not be silently swapped for the
        registry row sharing its serial (wrong solver, wrong cache key)."""
        import dataclasses

        hand_built = dataclasses.replace(
            get_row(4), solver=lambda *a, **kw: (_ for _ in ()).throw(AssertionError)
        )
        with pytest.raises(ConfigurationError, match="not the registry's"):
            Scenario(algorithm=hand_built, graph=g)

    @pytest.mark.parametrize("field, value", [
        pytest.param("algorithm", 99, id="algorithm"),
        pytest.param("graph", "not a graph", id="graph"),
        pytest.param("graph", GraphSpec("ring", (("n", "x"),)), id="graph-spec"),
        pytest.param("strategy", "teleporter", id="strategy"),
        pytest.param("f", "half", id="f"),
        pytest.param("kind", "nope", id="kind"),
        pytest.param("placement", "middle", id="placement"),
        pytest.param("seed", True, id="seed"),
        pytest.param("rounds", -1, id="rounds"),
        pytest.param("scheduler", "warp(speed=9)", id="scheduler"),
    ])
    def test_invalid_fields_rejected(self, g, field, value):
        """The constructor is the one field validator: built in Python or
        parsed from JSON, a bad value raises ``ValidationError`` naming
        its field."""
        with pytest.raises(ValidationError) as built:
            Scenario(**{"algorithm": 5, "graph": g, field: value})
        json_value = value
        if isinstance(value, GraphSpec):
            json_value = {"family": value.family, "args": dict(value.args)}
        payload = dict(Scenario(algorithm=5, graph=g).to_dict(), **{field: json_value})
        with pytest.raises(ValidationError) as parsed:
            Scenario.from_dict(payload)
        assert built.value.field == parsed.value.field == field

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", None, True])
    def test_seed_must_be_a_non_negative_int(self, g, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            Scenario(algorithm=5, graph=g, seed=seed)

    def test_f_none_normalises_to_max(self, g):
        assert Scenario(algorithm=5, graph=g, f=None).f == "max"

    def test_resolved_f_per_kind(self, g):
        bound = get_row(5).f_max(g)
        assert Scenario(algorithm=5, graph=g, f="max").resolved_f() is None
        assert Scenario(algorithm=5, graph=g, f="max",
                        kind="tolerance").resolved_f() == bound
        assert Scenario(algorithm=5, graph=g, f=2, kind="scaling").resolved_f() == 2


class TestKeyIsTheStoreKey:
    def test_definitional_equality(self, g):
        s = Scenario(algorithm=5, graph=g, strategy="idle", seed=1)
        assert s.key() == cell_key(
            kind="table1", serial=5, graph=graph_fingerprint(g),
            adversary=Adversary("idle", seed=1).descriptor(), f=None, seed=1,
        )

    def test_spec_and_graph_forms_key_identically(self, g):
        spec = spec_of(g)
        assert Scenario(algorithm=5, graph=spec).key() == \
            Scenario(algorithm=5, graph=g).key()
        # ... and the two payload forms compare equal (same work).
        assert Scenario(algorithm=5, graph=spec) == Scenario(algorithm=5, graph=g)

    def test_default_extras_leave_key_bit_identical(self, g):
        """placement='lowest' and rounds=None canonicalise out of the
        hash: a default scenario addresses the cell a PR-3 sweep wrote."""
        legacy = cell_key(
            kind="table1", serial=5, graph=graph_fingerprint(g),
            adversary=Adversary("squatter", seed=0).descriptor(), f=None, seed=0,
        )
        explicit = Scenario(algorithm=5, graph=g, strategy="squatter",
                            placement="lowest", rounds=None)
        assert explicit.key() == legacy

    def test_non_default_extras_change_key(self, g):
        base = Scenario(algorithm=5, graph=g)
        assert Scenario(algorithm=5, graph=g, placement="highest").key() != base.key()
        assert Scenario(algorithm=5, graph=g, rounds=50).key() != base.key()
        assert Scenario(algorithm=5, graph=g, placement="random").key() != \
            Scenario(algorithm=5, graph=g, placement="highest").key()

    def test_every_field_is_load_bearing(self, g):
        base = Scenario(algorithm=5, graph=g)
        variants = [
            Scenario(algorithm=4, graph=g),
            Scenario(algorithm=5, graph=random_connected(8, seed=6)),
            Scenario(algorithm=5, graph=g, strategy="idle"),
            Scenario(algorithm=5, graph=g, f=1, kind="tolerance"),
            Scenario(algorithm=5, graph=g, seed=1),
            Scenario(algorithm=5, graph=g, f=2),
        ]
        keys = {s.key() for s in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_golden_keys_stable(self):
        """Key canonicalisation must not drift across refactors: every
        golden scenario deserializes to its recorded key."""
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden, "golden file is empty"
        for name, entry in golden.items():
            scenario = Scenario.from_dict(entry["scenario"])
            assert scenario.key() == entry["key"], f"key drifted for {name}"


class TestSerialization:
    @pytest.mark.parametrize("scenario_kwargs", [
        dict(algorithm=5, strategy="idle"),
        dict(algorithm=4, strategy="squatter", f=1, kind="tolerance", seed=2),
        dict(algorithm=5, strategy="crash", f=1, kind="scaling"),
        dict(algorithm=5, placement="highest", rounds=64),
    ])
    def test_round_trip_is_key_fixed_point(self, g, scenario_kwargs):
        s = Scenario(graph=g, **scenario_kwargs)
        through_json = Scenario.from_dict(json.loads(json.dumps(s.to_dict())))
        assert through_json == s
        assert through_json.key() == s.key()

    def test_hand_built_graph_round_trips(self):
        hand_built = PortLabeledGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]
        )
        assert spec_of(hand_built) is None
        s = Scenario(algorithm=5, graph=hand_built, strategy="idle")
        back = Scenario.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back.resolved_graph() == hand_built
        assert back.key() == s.key()

    def test_to_json_is_canonical(self, g):
        a = Scenario(algorithm=5, graph=g, strategy="idle")
        b = Scenario(algorithm="theorem4", graph=spec_of(g), strategy="idle")
        assert a.to_json() == b.to_json()

    def test_user_built_spec_is_canonicalized(self, g):
        """A hand-written GraphSpec omitting generator defaults must key
        identically to the generator-tagged spec — otherwise one cell
        splits across two store keys and the round trip is not a fixed
        point."""
        partial = Scenario(
            algorithm=4,
            graph=GraphSpec("random_connected", (("n", 8), ("seed", 5))),
        )
        assert partial.graph == spec_of(g)  # defaults bound, order fixed
        assert partial.key() == Scenario(algorithm=4, graph=g).key()
        assert Scenario.from_dict(partial.to_dict()).key() == partial.key()

    def test_unknown_or_unbindable_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown graph family"):
            Scenario(algorithm=4, graph=GraphSpec("nope", ()))
        with pytest.raises(ConfigurationError, match="cannot build graph"):
            Scenario(algorithm=4, graph=GraphSpec("ring", (("bogus", 9),)))

    def test_iterator_arguments_accepted(self, g):
        """The presets accept one-shot iterators and must not consume
        them twice."""
        recs = tolerance_grid(5, g, iter([0, 1]), "idle").run()
        assert len(recs) == 2
        recs = table1_grid(g, iter(["idle"]), serials=iter([4, 5])).run()
        assert len(recs) == 2

    def test_partial_spec_args_pick_up_defaults(self, g):
        """A hand-written file may omit generator defaults; resolution
        re-binds them, so the key matches the fully-spelled spec."""
        s = Scenario.from_dict({
            "algorithm": 5,
            "graph": {"family": "random_connected", "args": {"n": 8, "seed": 5}},
        })
        assert s.resolved_graph() == g
        assert s.key() == Scenario(algorithm=5, graph=g).key()

    def test_bad_payloads_rejected(self, g):
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"algorithm": 5})  # no graph
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"algorithm": 5, "graph": {"weird": 1}})
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"algorithm": 5, "graph": {"family": "ring", "args": {"n": 6}},
                                "surprise": True})
        with pytest.raises(ConfigurationError):
            Scenario.from_dict({"algorithm": 5, "version": 99,
                                "graph": {"family": "ring", "args": {"n": 6}}})
        with pytest.raises(ConfigurationError):
            Scenario.from_dict("not an object")
        with pytest.raises(ConfigurationError, match="port_table"):
            Scenario.from_dict({"algorithm": 1,
                                "graph": {"port_table": {"0": {"0": 5}}}})
        # Bad generator args are a configuration problem, not a TypeError.
        with pytest.raises(ConfigurationError, match="cannot build graph"):
            Scenario.from_dict({"algorithm": 5,
                                "graph": {"family": "ring", "args": {"bogus": 9}}})

    @pytest.mark.parametrize("payload, field", [
        ({1: 2, "x": 3}, "scenario"),
        ({"algorithm": 5, "graph": {"family": "ring", "args": {"n": 6}}, 7: "x"},
         "scenario"),
        ({"algorithm": 5, "graph": {"family": "ring", "args": {"n": 6}},
          "version": True}, "version"),
        ({"algorithm": 5, "graph": {"family": "ring", "args": {"n": 6}},
          "version": 1.0}, "version"),
    ])
    def test_dicts_that_are_not_json_shaped_rejected(self, payload, field):
        """Keys of mixed types used to escape as a ``TypeError`` from
        sorting the unknown keys, and ``True`` and ``1.0`` passed the
        version check because they equal 1."""
        with pytest.raises(ValidationError) as excinfo:
            Scenario.from_dict(payload)
        assert excinfo.value.field == field


class TestGridExpansion:
    def test_expansion_is_deterministic(self, g):
        make = lambda: grid(rows=[4, 5], graphs=g,
                            strategies=["squatter", "idle"], seeds=[0, 1])
        one, two = make(), make()
        assert one.scenarios == two.scenarios
        assert one.keys() == two.keys()

    def test_documented_axis_order(self, g):
        """rows outermost, then graphs, strategies, f, seeds innermost."""
        out = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"],
                   seeds=[0, 1])
        combos = [(s.serial, s.strategy, s.seed) for s in out]
        assert combos == [
            (4, "squatter", 0), (4, "squatter", 1), (4, "idle", 0), (4, "idle", 1),
            (5, "squatter", 0), (5, "squatter", 1), (5, "idle", 0), (5, "idle", 1),
        ]

    def test_scalar_axes_wrap(self, g):
        assert len(grid(rows=5, graphs=g, strategies="idle")) == 1

    def test_rows_default_to_whole_table(self, g):
        out = grid(graphs=g, strategies="idle", applicable_only=False)
        assert [s.serial for s in out] == [row.serial for row in TABLE1]

    def test_applicable_only_filters(self):
        # Row 1 needs a view-distinguishable graph; a ring is maximally
        # symmetric, so the row drops out of the grid.
        out = grid(rows=[1, 5], graphs=ring(8), strategies="idle")
        assert [s.serial for s in out] == [5]

    def test_grid_needs_a_graph(self):
        with pytest.raises(ConfigurationError):
            grid(rows=[5], strategies="idle")

    def test_empty_axes_raise_uniformly(self, g):
        """An explicitly empty axis is an error, not a vacuous zero-cell
        grid whose all-success check would silently pass."""
        for kwargs in (
            dict(rows=[], graphs=g, strategies="idle"),
            dict(rows=[5], graphs=g, strategies=[]),
            dict(rows=[5], graphs=g, strategies="idle", f=[]),
            dict(rows=[5], graphs=g, strategies="idle", seeds=[]),
        ):
            with pytest.raises(ConfigurationError, match="empty"):
                grid(**kwargs)

    def test_grid_slicing_and_filter(self, g):
        out = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"])
        assert isinstance(out[0], Scenario)
        assert isinstance(out[:2], ScenarioGrid) and len(out[:2]) == 2
        only5 = out.filter(lambda s: s.serial == 5)
        assert all(s.serial == 5 for s in only5) and len(only5) == 2

    def test_grid_dicts_round_trip(self, g):
        out = grid(rows=[4, 5], graphs=g, strategies="idle")
        back = ScenarioGrid.from_dicts(json.loads(json.dumps(out.to_dicts())))
        assert back.keys() == out.keys()

    def test_grid_rejects_non_scenarios(self):
        with pytest.raises(ConfigurationError):
            ScenarioGrid(["not a scenario"])


class TestPresetsByteIdentical:
    """The grid presets replay identically serial, parallel, and warm
    (the golden records pin the bytes themselves)."""

    def test_table1_serial(self, g):
        preset = table1_grid(g, ["squatter", "idle"], serials=[4, 5])
        direct = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"], f="max")
        assert preset.keys() == direct.keys()
        assert preset.run() == direct.run()

    def test_table1_parallel(self, g):
        plan = table1_grid(g, ["squatter", "idle"], serials=[4, 5])
        assert plan.run(workers=2) == plan.run()

    def test_table1_warm_store(self, g, store):
        plan = table1_grid(g, ["squatter", "idle"], serials=[4, 5])
        cold = plan.run(store=store)
        assert store.puts == 4
        assert plan.run(store=store) == cold
        assert store.hits == 4 and store.puts == 4  # zero recomputes

    def test_tolerance(self, g, store):
        plan = tolerance_grid(5, g, [0, 1, 2], "squatter")
        cold = plan.run(store=store)
        warm = plan.run(store=store)
        parallel = plan.run(workers=3)
        assert warm == cold and parallel == cold
        assert store.puts == 3 and store.hits == 3

    def test_scaling(self, store):
        graphs = [random_connected(n, seed=1) for n in (6, 8)]
        plan = scaling_grid(5, graphs, "idle")
        cold = plan.run(store=store)
        warm = plan.run(store=store)
        parallel = plan.run(workers=2)
        assert warm == cold and parallel == cold
        assert store.puts == 2 and store.hits == 2

    def test_strategy_matrix(self, g, store):
        """The rows × strategies matrix is a plain grid at ``f="max"``,
        sharing its store cells with the Table 1 preset."""
        cold = table1_grid(g, ["squatter", "idle"], serials=[4, 5]).run(store=store)
        matrix = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"],
                      f="max").run(store=store)
        assert matrix == cold
        assert store.puts == 4 and store.hits == 4

    def test_sweeps_return_result_sets(self, g):
        out = table1_grid(g, ["idle"], serials=[5]).run()
        assert isinstance(out, ResultSet)
        assert out.success_rate() == 1.0


class TestRoundBudgetAndPlacement:
    def test_round_budget_caps_simulation(self, g):
        full = Scenario(algorithm=5, graph=g, strategy="idle").run()[0]
        capped = Scenario(algorithm=5, graph=g, strategy="idle", rounds=3).run()[0]
        assert full["success"] and full["rounds_simulated"] > 3
        assert not capped["success"]
        assert capped["rounds_simulated"] <= 3
        # With no Byzantine robot awake (f=0, or crashed ones), every
        # robot sleeps through the idle part of a mapping slot and the
        # world fast-forwards.  The jump stops at the budget, exactly
        # where stepping the dormant rounds one by one would stop.
        for strategy, f, rounds in (("idle", 0, 115), ("crash", "max", 241)):
            cut = Scenario(algorithm=5, graph=g, strategy=strategy, f=f,
                           rounds=rounds).run()[0]
            assert not cut["success"]
            assert cut["rounds_simulated"] == rounds

    def test_budget_at_bound_changes_nothing_but_key(self, g):
        full = Scenario(algorithm=5, graph=g, strategy="idle")
        roomy = Scenario(algorithm=5, graph=g, strategy="idle", rounds=10**9)
        assert roomy.run() == full.run()
        assert roomy.key() != full.key()

    def test_placement_changes_outcome_population(self, g):
        lowest = Scenario(algorithm=4, graph=g, strategy="crash", f=2)
        highest = Scenario(algorithm=4, graph=g, strategy="crash", f=2,
                           placement="highest")
        assert lowest.run()[0]["success"] and highest.run()[0]["success"]
        assert lowest.key() != highest.key()

    def test_budgeted_cells_cache_under_their_own_key(self, g, store):
        capped = Scenario(algorithm=5, graph=g, strategy="idle", rounds=3)
        first = capped.run(store=store)
        again = capped.run(store=store)
        assert again == first
        assert store.puts == 1 and store.hits == 1
        # ... and the unbudgeted cell is a different entry entirely.
        assert Scenario(algorithm=5, graph=g, strategy="idle").key() not in store


class TestResultSet:
    def _records(self):
        return ResultSet([
            {"serial": 4, "strategy": "squatter", "success": True,
             "rounds_simulated": 10, "rounds_total": 10},
            {"serial": 5, "strategy": "squatter", "success": False,
             "rounds_simulated": 20, "rounds_total": 20},
            {"serial": 5, "strategy": "idle", "success": True,
             "rounds_simulated": 30, "rounds_total": 30},
        ])

    def test_is_a_list(self):
        rs = self._records()
        assert rs == list(rs) and len(rs) == 3 and rs[0]["serial"] == 4

    def test_filter_kwargs_and_pred(self):
        rs = self._records()
        assert len(rs.filter(strategy="squatter")) == 2
        assert len(rs.filter(strategy="squatter", success=True)) == 1
        assert len(rs.filter(lambda r: r["rounds_total"] > 15)) == 2
        assert isinstance(rs.filter(success=True), ResultSet)

    def test_group_by(self):
        groups = rs = self._records().group_by("serial")
        assert set(groups) == {4, 5}
        assert len(groups[5]) == 2 and isinstance(groups[5], ResultSet)
        by_fn = self._records().group_by(lambda r: r["success"])
        assert len(by_fn[True]) == 2

    def test_summarize_and_success_rate(self):
        rs = self._records()
        assert rs.success_rate() == pytest.approx(2 / 3)
        summary = rs.summarize("strategy")
        assert {row["strategy"] for row in summary} == {"squatter", "idle"}

    def test_columns_and_table(self):
        rs = self._records()
        assert rs.columns()[:2] == ["serial", "strategy"]
        rendered = rs.table(columns=["serial", "success"], title="T")
        assert rendered.startswith("T\n") and "serial" in rendered

    def test_json_round_trip(self, tmp_path):
        rs = self._records()
        path = tmp_path / "records.json"
        text = rs.to_json(path=str(path))
        assert ResultSet.from_json(text) == rs
        assert ResultSet.from_json(path.read_text()) == rs
        with pytest.raises(ConfigurationError):
            ResultSet.from_json('{"not": "an array"}')


class TestScenarioCLI:
    def test_scenario_file_hits_the_sweep_cell(self, tmp_path, capsys):
        """Acceptance: a JSON scenario run via `repro scenario` lands on
        the same store key as the equivalent `repro sweep` cell."""
        from repro.cli import _sample_graph

        store_dir = tmp_path / "runs"
        assert cli_main([
            "sweep", "--n", "8", "--strategies", "squatter", "--serials", "5",
            "--store", str(store_dir),
        ]) == 0
        assert "0 cell(s) answered from cache, 1 computed" in capsys.readouterr().out

        graph = _sample_graph(8, require_view_distinct=True, seed=0)
        spec = spec_of(graph)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({
            "algorithm": 5,
            "graph": {"family": spec.family, "args": dict(spec.args)},
            "strategy": "squatter",
            "f": "max",
            "seed": 0,
        }))
        assert cli_main([
            "scenario", str(scenario_path), "--store", str(store_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "1 cell(s) answered from cache, 0 computed" in out

    def test_scenario_list_and_key_mode(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([
            {"algorithm": 5, "graph": {"family": "random_connected",
                                       "args": {"n": 8, "seed": 5}},
             "strategy": "idle"},
            {"algorithm": 4, "graph": {"family": "random_connected",
                                       "args": {"n": 8, "seed": 5}},
             "strategy": "idle"},
        ]))
        assert cli_main(["scenario", str(path), "--key"]) == 0
        out = capsys.readouterr().out
        assert out.count("key:") == 2
        assert "Scenario records" not in out  # --key does not run

        assert cli_main(["scenario", str(path)]) == 0
        assert "Scenario records (2)" in capsys.readouterr().out

    def test_scenario_bad_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"algorithm": 5}')
        with pytest.raises(SystemExit):
            cli_main(["scenario", str(path)])
        with pytest.raises(SystemExit):
            cli_main(["scenario", str(tmp_path / "missing.json")])
        empty = tmp_path / "empty.json"
        empty.write_text("[]")
        with pytest.raises(SystemExit):
            cli_main(["scenario", str(empty)])

    def test_store_stats_cli(self, tmp_path, capsys):
        store_dir = tmp_path / "runs"
        assert cli_main([
            "sweep", "--n", "8", "--strategies", "idle", "--serials", "5",
            "--store", str(store_dir),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["store", "stats", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "cells            : 1" in out
        assert "shards           : 1" in out
        assert cli_main(["store", "stats", str(store_dir), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cells"] == 1 and stats["schema_version"] == 1
        assert stats["bytes"] >= stats["indexed_bytes"] > 0

    def test_run_detail_prints_phases(self, capsys):
        # Row 2 carries a charged gathering phase, so --detail has a
        # per-phase breakdown to show (the flat record path cannot).
        rc = cli_main(["run", "--row", "2", "--n", "8", "--strategy",
                       "squatter", "--detail"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "success          : True" in out
        assert "    - gathering" in out  # per-phase breakdown restored

    def test_scenario_runtime_rejection_exits_cleanly(self, tmp_path, capsys):
        """An in-bounds file whose scenario the driver rejects (f beyond
        the row's bound) must exit with a message, not a traceback."""
        path = tmp_path / "beyond.json"
        path.write_text(json.dumps({
            "algorithm": 4,
            "graph": {"family": "random_connected", "args": {"n": 9, "seed": 0}},
            "strategy": "squatter", "f": 8,
        }))
        with pytest.raises(SystemExit, match="scenario rejected"):
            cli_main(["scenario", str(path)])

    def test_store_stats_refuses_to_create(self, tmp_path):
        """Inspection is read-only: a mistyped path must error, not leave
        an empty decoy store behind."""
        missing = tmp_path / "typo"
        with pytest.raises(SystemExit, match="not a run store"):
            cli_main(["store", "stats", str(missing)])
        assert not missing.exists()

    def test_run_cli_warm_store(self, tmp_path, capsys):
        """`repro run` goes through the executor: a second invocation
        answers from the store without recomputing."""
        store_dir = tmp_path / "runs"
        argv = ["run", "--row", "5", "--n", "8", "--strategy", "squatter",
                "--store", str(store_dir)]
        assert cli_main(argv) == 0
        assert "0 cell(s) answered from cache, 1 computed" in capsys.readouterr().out
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "1 cell(s) answered from cache, 0 computed" in out
        header, _, row = out.splitlines()[1:4]
        cells = {h.strip(): c.strip() for h, c in zip(header.split(" | "), row.split(" | "))}
        assert cells["success"] == "True"

    def test_tolerance_cli_warm_store(self, tmp_path, capsys):
        store_dir = tmp_path / "runs"
        argv = ["tolerance", "--row", "5", "--n", "8", "--strategy", "idle",
                "--store", str(store_dir)]
        assert cli_main(argv) == 0
        cold = capsys.readouterr().out
        assert "computed" in cold
        assert cli_main(argv) == 0
        warm = capsys.readouterr().out
        assert ", 0 computed" in warm
