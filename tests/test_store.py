"""Run store + streaming plan executor: resume, integrity, zero-recompute.

The contracts under test:

* every plan routed through :func:`execute_plan` produces records
  byte-identical to a store-less serial run — serial, ``workers>1``,
  and resumed-from-partial-store;
* a second run against a warm store completes with **zero** solver
  calls (pinned with raising stubs);
* a sweep killed mid-run (bounded store writes) resumes from the last
  persisted cell and ends byte-identical to an uninterrupted run;
* store keys are canonical: graph-object and spec payloads, or two
  equal hand-built graphs, key identically; any config or schema change
  keys differently;
* loading tolerates torn/corrupt shard lines and bad digests.
"""

import json
import os

import pytest

from repro.analysis import RunStore, cell_key
from repro.analysis import experiments
from repro.analysis import store as store_module
from repro.analysis.experiments import cell_key_of, execute_plan
from repro.analysis.store import SCHEMA_VERSION, _records_sha
from repro.byzantine import Adversary
from repro.errors import ConfigurationError
from repro.graphs import PortLabeledGraph, random_connected, spec_of
from repro.scenarios import Scenario, grid, scaling_grid, table1_grid, tolerance_grid


@pytest.fixture(scope="module")
def g():
    return random_connected(8, seed=5)


@pytest.fixture()
def store(tmp_path):
    return RunStore(tmp_path / "store")


def _solver_ban(monkeypatch):
    """Make the per-cell entry point raise: any call proves the sweep
    did not run purely from the store."""

    def boom(*args, **kwargs):
        raise AssertionError("solver invoked despite warm store")

    monkeypatch.setattr(experiments, "_cell_records", boom)


def _table1_45(g, strategies=("squatter", "idle")):
    """Rows 4 and 5 of Table 1 on ``g`` (cheap, always applicable)."""
    return table1_grid(g, list(strategies), serials=[4, 5])


class TestRunStore:
    def test_put_get_roundtrip(self, store):
        recs = [{"serial": 4, "success": True, "rounds_simulated": 12}]
        store.put("ab" * 32, recs)
        assert store.get("ab" * 32) == recs
        assert ("ab" * 32) in store and len(store) == 1

    def test_get_missing_counts_miss(self, store):
        assert store.get("00" * 32) is None
        assert store.misses == 1 and store.hits == 0

    def test_persists_across_handles(self, tmp_path):
        s1 = RunStore(tmp_path / "s")
        s1.put("cd" * 32, [{"x": 1}])
        s2 = RunStore(tmp_path / "s")
        assert s2.get("cd" * 32) == [{"x": 1}]

    def test_shard_layout(self, store):
        key = "ef" + "0" * 62
        store.put(key, [{"x": 1}])
        assert os.path.exists(os.path.join(store.path, "shard-ef.jsonl"))
        with open(os.path.join(store.path, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta == {"format": "repro-run-store", "schema_version": SCHEMA_VERSION}

    def test_torn_final_line_is_skipped(self, tmp_path):
        s = RunStore(tmp_path / "s")
        key = "aa" + "0" * 62
        s.put(key, [{"x": 1}])
        shard = os.path.join(s.path, "shard-aa.jsonl")
        with open(shard, "ab") as fh:
            fh.write(b'{"key": "aa11", "sha": "tru')  # crash mid-append
        s2 = RunStore(tmp_path / "s")
        assert s2.get(key) == [{"x": 1}]
        assert len(s2) == 1

    def test_append_after_torn_line_survives_reload(self, tmp_path):
        """Regression: a put landing after a crash's torn (newline-less)
        trailing line must start a fresh line, not merge into the
        garbage and vanish on the next load."""
        s = RunStore(tmp_path / "s")
        k1, k2 = "aa" + "0" * 62, "aa" + "1" * 62  # same shard
        s.put(k1, [{"x": 1}])
        with open(os.path.join(s.path, "shard-aa.jsonl"), "ab") as fh:
            fh.write(b'{"key": "aa22", "sha": "tru')  # torn, no newline
        s2 = RunStore(tmp_path / "s")
        s2.put(k2, [{"x": 2}])
        assert s2.get(k2) == [{"x": 2}]  # readable in the writing handle
        s3 = RunStore(tmp_path / "s")  # ... and after a fresh load
        assert s3.get(k1) == [{"x": 1}]
        assert s3.get(k2) == [{"x": 2}]

    def test_put_after_another_writers_append(self, tmp_path, monkeypatch):
        """Regression: a second handle appending to the same shard between
        this handle's open and its write must not leave a wrong offset in
        this handle's index (a silent miss that recomputes the cell)."""
        a = RunStore(tmp_path / "s")
        b = RunStore(tmp_path / "s")
        key_a, key_b = "dd" + "0" * 62, "dd" + "1" * 62  # same shard
        real_open = open
        interleaved = []

        def open_then_let_b_write(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if mode == "ab" and not interleaved:
                interleaved.append(path)
                b.put(key_b, [{"writer": "b"}])
            return fh

        monkeypatch.setattr(store_module, "open", open_then_let_b_write, raising=False)
        a.put(key_a, [{"writer": "a"}])
        monkeypatch.undo()
        assert interleaved
        assert a.get(key_a) == [{"writer": "a"}]
        assert b.get(key_b) == [{"writer": "b"}]
        fresh = RunStore(tmp_path / "s")
        assert fresh.get(key_a) == [{"writer": "a"}]
        assert fresh.get(key_b) == [{"writer": "b"}]

    def test_store_path_collides_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(ConfigurationError):
            RunStore(target)

    def test_bad_digest_treated_as_missing(self, tmp_path):
        s = RunStore(tmp_path / "s")
        key = "bb" + "0" * 62
        line = json.dumps({"key": key, "sha": "0" * 64, "records": [{"x": 1}]})
        with open(os.path.join(s.path, "shard-bb.jsonl"), "a") as fh:
            fh.write(line + "\n")
        s2 = RunStore(tmp_path / "s")
        assert key in s2  # indexed ...
        assert s2.get(key) is None  # ... but fails integrity at read
        assert key not in s2  # and is dropped

    def test_last_write_wins(self, store):
        key = "cc" + "0" * 62
        store.put(key, [{"x": 1}])
        store.put(key, [{"x": 2}])
        assert store.get(key) == [{"x": 2}]
        reopened = RunStore(store.path)
        assert reopened.get(key) == [{"x": 2}]

    def test_non_store_directory_refused(self, tmp_path):
        with open(tmp_path / "meta.json", "w") as fh:
            json.dump({"format": "something-else"}, fh)
        with pytest.raises(ConfigurationError):
            RunStore(tmp_path)

    @pytest.mark.parametrize("meta", ["[1]", '"x"', "null", "3"])
    def test_meta_that_is_not_an_object_refused(self, tmp_path, meta):
        (tmp_path / "meta.json").write_text(meta + "\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a run store"):
            RunStore(tmp_path)

    def test_damaged_lines_are_absent(self, tmp_path):
        """Lines that parse but are no keyed entry — not an object, or a
        key that is not a string — are treated like torn ones."""
        s = RunStore(tmp_path / "s")
        key = "aa" + "0" * 62
        s.put(key, [{"x": 1}])
        with open(os.path.join(s.path, "shard-aa.jsonl"), "ab") as fh:
            fh.write(b'[1, 2]\n{"key": 1}\n{"key": ["ab"], "sha": "x", "records": []}\n'
                     b'{"key": null}\n')
        reopened = RunStore(tmp_path / "s")
        assert reopened.get(key) == [{"x": 1}] and len(reopened) == 1
        report = reopened.verify()
        assert report["ok"] and report["torn_lines"] == 4 and report["cells"] == 1
        assert reopened.compact()["dropped_lines"] == 4
        assert reopened.verify()["torn_lines"] == 0
        assert reopened.get(key) == [{"x": 1}]

    @pytest.mark.parametrize("same_shard", [True, False])
    def test_handles_see_each_others_puts(self, tmp_path, same_shard):
        """Two open handles on one directory read each other's puts
        without reopening, whichever writes first."""
        a = RunStore(tmp_path / "s")
        b = RunStore(tmp_path / "s")
        key_a = "ee" + "0" * 62
        key_b = ("ee" if same_shard else "ef") + "1" * 62
        a.put(key_a, [{"writer": "a"}])
        assert b.get(key_a) == [{"writer": "a"}]
        b.put(key_b, [{"writer": "b"}])
        assert a.get(key_b) == [{"writer": "b"}]
        a.put(key_b, [{"writer": "a again"}])  # a later line wins
        assert b.get(key_b) == [{"writer": "b"}]  # b's index still hits its line
        assert RunStore(tmp_path / "s").get(key_b) == [{"writer": "a again"}]
        assert a.misses == 0 and b.misses == 0

    def test_partial_line_is_indexed_once_complete(self, tmp_path):
        """A line without its newline is an append still in progress: it
        is not indexed until its newline arrives."""
        s = RunStore(tmp_path / "s")
        other = RunStore(tmp_path / "other")
        key = "ab" + "0" * 62
        other.put(key, [{"x": 1}])
        with open(os.path.join(other.path, "shard-ab.jsonl"), "rb") as fh:
            line = fh.read()
        shard = os.path.join(s.path, "shard-ab.jsonl")
        with open(shard, "ab") as fh:
            fh.write(line[:-1])
        assert s.get(key) is None
        assert RunStore(tmp_path / "s").get(key) is None
        with open(shard, "ab") as fh:
            fh.write(b"\n")
        assert s.get(key) == [{"x": 1}]

    def test_records_sha_is_canonical(self):
        assert _records_sha([{"a": 1, "b": 2}]) == _records_sha([{"b": 2, "a": 1}])


class TestKeyCanonicalisation:
    def test_graph_and_spec_payloads_key_identically(self, g):
        spec = spec_of(g)
        assert spec is not None
        as_graph = cell_key_of(Scenario(5, g, "idle", seed=0))
        as_spec = cell_key_of(Scenario(5, spec, "idle", seed=0))
        assert as_graph == as_spec

    def test_equal_hand_built_graphs_key_identically(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        g1 = PortLabeledGraph.from_edges(4, edges)
        g2 = PortLabeledGraph.from_edges(4, edges)
        assert spec_of(g1) is None
        k1 = cell_key_of(Scenario(5, g1, "idle", seed=0))
        k2 = cell_key_of(Scenario(5, g2, "idle", seed=0))
        assert k1 == k2

    def test_every_config_field_is_load_bearing(self, g):
        base = Scenario(5, g, "idle", seed=0)
        variants = [
            Scenario(5, g, "idle", kind="tolerance", seed=0),
            Scenario(4, g, "idle", seed=0),
            Scenario(5, random_connected(8, seed=6), "idle", seed=0),
            Scenario(5, g, "squatter", seed=0),
            Scenario(5, g, "idle", seed=1),
            Scenario(5, g, "idle", seed=0, f=2),
        ]
        keys = {cell_key_of(c) for c in variants}
        assert cell_key_of(base) not in keys
        assert len(keys) == len(variants)

    def test_schema_version_invalidates(self, g):
        args = dict(
            kind="table1", serial=5, graph=["csr", 4, "x"],
            adversary=Adversary("idle", seed=0).descriptor(), f=None, seed=0,
        )
        assert cell_key(**args) != cell_key(**args, schema_version=SCHEMA_VERSION + 1)

    def test_adversary_descriptor_canonical(self):
        assert Adversary("squatter", seed=3).descriptor() == ["adversary", "squatter", 3]
        het = Adversary({2: "idle", 1: "squatter"}, seed=0).descriptor()
        assert het == ["adversary", [[1, "squatter"], [2, "idle"]], 0]


class TestWarmStoreZeroSolverCalls:
    def test_run_table1(self, g, store, monkeypatch):
        fresh = _table1_45(g).run(store=store)
        _solver_ban(monkeypatch)
        warm = _table1_45(g).run(store=store)
        assert warm == fresh
        assert store.puts == 4 and store.hits == 4

    def test_tolerance_sweep(self, g, store, monkeypatch):
        fresh = tolerance_grid(5, g, [0, 1, 2], "squatter").run(store=store)
        _solver_ban(monkeypatch)
        assert tolerance_grid(5, g, [0, 1, 2], "squatter").run(store=store) == fresh

    def test_scaling_sweep(self, store, monkeypatch):
        graphs = [random_connected(n, seed=1) for n in (6, 8)]
        fresh = scaling_grid(5, graphs, "idle").run(store=store)
        _solver_ban(monkeypatch)
        assert scaling_grid(5, graphs, "idle").run(store=store) == fresh

    def test_strategy_matrix(self, g, store, monkeypatch):
        plan = grid(rows=[4, 5], graphs=g, strategies=["squatter", "idle"], f="max")
        fresh = plan.run(store=store)
        _solver_ban(monkeypatch)
        assert plan.run(store=store) == fresh

    def test_parallel_run_reads_serially_written_store(self, g, store, monkeypatch):
        """Cache written by a serial run (graph payloads) must be hit by
        a parallel run (spec payloads): keys are wire-format-independent."""
        fresh = _table1_45(g).run(store=store)
        _solver_ban(monkeypatch)
        warm = _table1_45(g).run(store=store, workers=2)
        assert warm == fresh

    def test_resume_false_recomputes(self, g, store):
        plan = table1_grid(g, ["idle"], serials=[5])
        fresh = plan.run(store=store)
        again = plan.run(store=store, resume=False)
        assert again == fresh
        assert store.hits == 0 and store.puts == 2


class _CrashingStore(RunStore):
    """A store whose process dies after ``budget`` successful appends."""

    def __init__(self, path, budget):
        super().__init__(path)
        self.budget = budget

    def put(self, key, records):
        if self.budget <= 0:
            raise KeyboardInterrupt("simulated crash")
        super().put(key, records)
        self.budget -= 1


class TestCrashResume:
    @pytest.mark.parametrize("workers", [None, 2])
    def test_killed_sweep_resumes_byte_identical(self, g, tmp_path, workers):
        uninterrupted = _table1_45(g).run()

        crashing = _CrashingStore(tmp_path / "store", budget=2)
        with pytest.raises(KeyboardInterrupt):
            _table1_45(g).run(store=crashing, workers=workers)
        assert crashing.puts == 2  # bounded writes persisted before the kill

        resumed_store = RunStore(tmp_path / "store")
        assert len(resumed_store) == 2
        resumed = _table1_45(g).run(store=resumed_store, workers=workers)
        assert resumed == uninterrupted
        assert resumed_store.hits == 2 and resumed_store.puts == 2

    def test_resumed_run_skips_persisted_cells(self, g, tmp_path, monkeypatch):
        crashing = _CrashingStore(tmp_path / "store", budget=2)
        with pytest.raises(KeyboardInterrupt):
            _table1_45(g).run(store=crashing)

        calls = []
        real = experiments._cell_records

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(experiments, "_cell_records", counting)
        _table1_45(g).run(store=RunStore(tmp_path / "store"))
        assert len(calls) == 2  # only the two cells the crash lost


class TestStoreMaintenance:
    def test_verify_reports_stale_and_corrupt(self, tmp_path):
        store = RunStore(tmp_path / "store")
        key_a = "aa" + "0" * 62
        key_b = "aa" + "1" * 62
        store.put(key_a, [{"v": 1}])
        store.put(key_b, [{"v": 2}])
        store.put(key_a, [{"v": 3}])  # supersede
        report = store.verify()
        assert report["ok"] and report["verified"] == 2
        assert report["stale_lines"] == 1 and report["corrupt"] == 0
        # Corrupt key_b's line on disk: verify names it.
        shard = store._shard_path(key_b)
        with open(shard, "rb") as fh:
            data = fh.read().replace(b'{"v":2}', b'{"v":8}')
        with open(shard, "wb") as fh:
            fh.write(data)
        report = store.verify()
        assert report["ok"] is False
        assert report["corrupt_keys"] == [key_b]

    def test_repair_drops_corrupt_keeps_good(self, tmp_path):
        store = RunStore(tmp_path / "store")
        key_a = "bb" + "0" * 62
        key_b = "bb" + "1" * 62
        store.put(key_a, [{"v": 1}])
        store.put(key_b, [{"v": 2}])
        shard = store._shard_path(key_b)
        with open(shard, "rb") as fh:
            data = fh.read().replace(b'{"v":2}', b'{"v":8}')
        with open(shard, "wb") as fh:
            fh.write(data)
        fixed = RunStore(tmp_path / "store")
        report = fixed.repair()
        assert report["dropped_lines"] == 1 and report["cells"] == 1
        assert fixed.get(key_a) == [{"v": 1}]
        assert fixed.get(key_b) is None  # recomputed on the next sweep
        assert fixed.verify()["ok"]

    def test_compact_reclaims_superseded_lines(self, tmp_path):
        store = RunStore(tmp_path / "store")
        key = "cc" + "0" * 62
        for v in range(5):
            store.put(key, [{"v": v}])
        before = store.stats()["bytes"]
        report = store.compact()
        assert report["dropped_lines"] == 4
        assert report["reclaimed_bytes"] == before - store.stats()["bytes"]
        assert store.get(key) == [{"v": 4}]
        assert store.verify()["stale_lines"] == 0

    def test_compact_noop_on_clean_store(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.put("dd" + "0" * 62, [{"v": 1}])
        assert store.compact() == {
            "reclaimed_bytes": 0, "dropped_lines": 0, "cells": 1}


class TestExecutePlan:
    def test_results_align_with_cells(self, g):
        cells = [
            Scenario(5, g, "idle", seed=0),
            Scenario(5, g, "idle", kind="tolerance", seed=0, f=1),
            Scenario(5, g, "idle", kind="scaling", seed=0, f=1),
        ]
        lists = execute_plan(cells)
        assert [len(recs) for recs in lists] == [1, 1, 1]
        assert lists[0][0]["serial"] == 5
        assert lists[1][0]["rejected"] is False
        assert "m" in lists[2][0]

    def test_store_roundtrip_preserves_record_types(self, g, store):
        """JSON round-tripping must not perturb values: huge paper-bound
        ints, bools, and strings all survive exactly (the byte-identical
        guarantee)."""
        fresh = table1_grid(g, ["idle"], serials=[6]).run(store=store)
        warm = table1_grid(g, ["idle"], serials=[6]).run(store=store)
        assert warm == fresh
        for a, b in zip(fresh, warm):
            assert list(a.keys()) == list(b.keys())
            assert all(type(a[k]) is type(b[k]) for k in a)

    def test_repeated_cell_is_solved_and_stored_once(self, g, store, monkeypatch):
        """A plan naming one cell in several slots (``grid`` with a
        repeated axis value) solves and stores it once; every slot still
        gets its own record dicts, in plan order."""
        s = Scenario(5, g, "idle", seed=0)
        t = Scenario(5, g, "squatter", seed=0)
        reference = {cell: execute_plan([cell])[0] for cell in (s, t)}
        calls = []
        real = experiments._cell_records

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(experiments, "_cell_records", counting)
        lists = execute_plan([s, s, t, s], store=store)
        assert calls == [s, t]
        assert lists == [reference[s], reference[s], reference[t], reference[s]]
        assert len({id(rec) for recs in lists for rec in recs}) == 4
        assert store.puts == 2 and len(store) == 2
