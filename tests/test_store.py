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
* every commit appends to one log, ``shard-log.jsonl``; a store of
  v1.23.0's key-prefix shards opens fully warm, a commit to it writes
  only the log, the log wins a key both hold, and ``compact`` folds
  every file into the log;
* loading tolerates torn/corrupt lines and bad digests;
* open reads each line's key from the head ``put`` writes, without
  parsing records, and a hit is one raw read that leaves no descriptor
  open;
* a batch group is one commit: one open, one write, one fsync and one
  close of the log, byte for byte the log a put per cell writes;
* store creation and every rewrite are durable: the file is fsynced
  before its rename and the directory after it, and the commit that
  creates the log fsyncs the directory too.
"""

import errno
import fnmatch
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


def _file_of(store, key):
    """The file holding ``key``'s indexed line."""
    return store._index[key][0]


def _line(key, records):
    """The line ``put`` writes for one cell, spelled out here."""
    return (json.dumps({"key": key, "sha": _records_sha(records), "records": records},
                       separators=(",", ":")) + "\n").encode("utf-8")


def _legacy_store(path, cells):
    """A store in the v1.23.0 layout, built by hand: ``meta.json`` and
    each cell's line appended to ``shard-<key[:2]>.jsonl``."""
    os.makedirs(path)
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        fh.write('{"format": "repro-run-store", "schema_version": %d}\n' % SCHEMA_VERSION)
    for key, records in cells:
        with open(os.path.join(path, f"shard-{key[:2]}.jsonl"), "ab") as fh:
            fh.write(_line(key, records))


def _files(path):
    """Every file of a store directory, name -> bytes."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


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
        """Cells of any key prefix go to the one log, beside ``meta.json``."""
        keys = ["ef" + "0" * 62, "01" + "0" * 62]
        for key in keys:
            store.put(key, [{"x": key[:2]}])
        assert sorted(os.listdir(store.path)) == ["meta.json", "shard-log.jsonl"]
        assert {_file_of(store, key) for key in keys} == {
            os.path.join(store.path, "shard-log.jsonl")}
        with open(os.path.join(store.path, "meta.json")) as fh:
            meta = json.load(fh)
        assert meta == {"format": "repro-run-store", "schema_version": SCHEMA_VERSION}

    def test_log_name_is_a_shard_name_sorting_last(self):
        """A v1.23.0 handle indexes the log as one more shard, and open
        scans it after every key-prefix shard, so its lines win."""
        name = store_module._LOG_NAME
        assert fnmatch.fnmatch(name, "shard-*.jsonl")
        prefixes = [f"shard-{i:02x}.jsonl" for i in range(256)]
        assert sorted(prefixes + [name])[-1] == name

    def test_torn_final_line_is_skipped(self, tmp_path):
        s = RunStore(tmp_path / "s")
        key = "aa" + "0" * 62
        s.put(key, [{"x": 1}])
        with open(_file_of(s, key), "ab") as fh:
            fh.write(b'{"key": "aa11", "sha": "tru')  # crash mid-append
        s2 = RunStore(tmp_path / "s")
        assert s2.get(key) == [{"x": 1}]
        assert len(s2) == 1

    def test_append_after_torn_line_survives_reload(self, tmp_path):
        """Regression: a put landing after a crash's torn (newline-less)
        trailing line must start a fresh line, not merge into the
        garbage and vanish on the next load."""
        s = RunStore(tmp_path / "s")
        k1, k2 = "aa" + "0" * 62, "aa" + "1" * 62
        s.put(k1, [{"x": 1}])
        with open(_file_of(s, k1), "ab") as fh:
            fh.write(b'{"key": "aa22", "sha": "tru')  # torn, no newline
        s2 = RunStore(tmp_path / "s")
        s2.put(k2, [{"x": 2}])
        assert s2.get(k2) == [{"x": 2}]  # readable in the writing handle
        s3 = RunStore(tmp_path / "s")  # ... and after a fresh load
        assert s3.get(k1) == [{"x": 1}]
        assert s3.get(k2) == [{"x": 2}]

    def test_put_after_another_writers_append(self, tmp_path, monkeypatch):
        """Regression: a second handle appending to the log between
        this handle's open and its write must not leave a wrong offset in
        this handle's index (a silent miss that recomputes the cell)."""
        a = RunStore(tmp_path / "s")
        b = RunStore(tmp_path / "s")
        key_a, key_b = "dd" + "0" * 62, "dd" + "1" * 62
        interleaved = []

        def let_b_write_first(fd, data):
            if not interleaved:
                interleaved.append(fd)
                b.put(key_b, [{"writer": "b"}])
            return os.write(fd, data)

        monkeypatch.setattr(store_module, "os", _OsSpy(write=let_b_write_first))
        a.put(key_a, [{"writer": "a"}])
        monkeypatch.undo()
        assert interleaved
        assert a.get(key_a) == [{"writer": "a"}]
        assert b.get(key_b) == [{"writer": "b"}]
        fresh = RunStore(tmp_path / "s")
        assert fresh.get(key_a) == [{"writer": "a"}]
        assert fresh.get(key_b) == [{"writer": "b"}]

    def test_put_after_another_writers_torn_line(self, tmp_path):
        """Regression: another writer's torn tail that this handle never
        indexed must not swallow this handle's next append, or the cell is
        lost to every fresh handle while ``verify`` still reports ok."""
        a = RunStore(tmp_path / "s")
        k1, k2 = "ab" + "0" * 62, "ab" + "1" * 62
        a.put(k1, [{"x": 1}])
        with open(_file_of(a, k1), "ab") as fh:
            fh.write(b'{"key":"ab' + b"2" * 62 + b'","sha":"deadbeef","rec')
        a.put(k2, [{"x": 2}])
        assert a.get(k2) == [{"x": 2}]
        fresh = RunStore(tmp_path / "s")
        assert fresh.get(k1) == [{"x": 1}]
        assert fresh.get(k2) == [{"x": 2}]
        assert fresh.verify()["torn_lines"] == 1

    def test_store_path_collides_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("not a directory")
        with pytest.raises(ConfigurationError):
            RunStore(target)

    @pytest.mark.parametrize("envelope", [
        lambda key, sha, records: json.dumps(
            {"key": key, "sha": sha, "records": records}),
        lambda key, sha, records: json.dumps(
            {"sha": sha, "key": key, "records": records}, separators=(",", ":")),
    ], ids=["spaced", "sha-first"])
    def test_bad_digest_treated_as_missing(self, tmp_path, envelope):
        """A line in another spelling than put's is indexed through the
        full parse, and a hit is digest-checked however it was indexed."""
        s = RunStore(tmp_path / "s")
        key = "bb" + "0" * 62
        line = envelope(key, "0" * 64, [{"x": 1}])
        with open(os.path.join(s.path, "shard-bb.jsonl"), "a") as fh:
            fh.write(line + "\n")
        s2 = RunStore(tmp_path / "s")
        assert key in s2  # indexed ...
        assert s2.get(key) is None  # ... but fails integrity at read
        assert key not in s2  # and is dropped
        assert (s2.misses, s2.dropped) == (1, 1)

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
        with open(_file_of(s, key), "ab") as fh:
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
        is not indexed until its newline arrives, by an open handle's
        catch-up or a fresh handle alike."""
        s = RunStore(tmp_path / "s")
        s.put("cd" + "0" * 62, [{"x": 0}])
        key = "ab" + "0" * 62
        log = os.path.join(s.path, "shard-log.jsonl")
        with open(log, "ab") as fh:
            fh.write(_line(key, [{"x": 1}])[:-1])
        assert s.get(key) is None
        assert RunStore(tmp_path / "s").get(key) is None
        with open(log, "ab") as fh:
            fh.write(b"\n")
        assert s.get(key) == [{"x": 1}]
        assert RunStore(tmp_path / "s").get(key) == [{"x": 1}]

    def test_records_sha_is_canonical(self):
        assert _records_sha([{"a": 1, "b": 2}]) == _records_sha([{"b": 2, "a": 1}])


class _CountingJson:
    """The ``json`` module as the store sees it, counting the store's own
    ``json.loads`` calls (``json.load`` of ``meta.json`` is not one)."""

    def __init__(self):
        self.loads_calls = 0

    def __getattr__(self, name):
        return getattr(json, name)

    def loads(self, *args, **kwargs):
        self.loads_calls += 1
        return json.loads(*args, **kwargs)


class _OsSpy:
    """The ``os`` module as the store sees it, with some of its functions
    replaced by the given hooks."""

    def __init__(self, **hooks):
        self.__dict__.update(hooks)

    def __getattr__(self, name):
        return getattr(os, name)


def _traced_os(calls):
    """The ``os`` module as the store sees it, logging ``(call, name)``
    for every open, write, fsync, close and rename, where ``name`` is
    the file's base name, or ``"."`` for a directory."""
    names = {}

    def open_(path, *args):
        fd = os.open(path, *args)
        names[fd] = "." if os.path.isdir(path) else os.path.basename(path)
        calls.append(("open", names[fd]))
        return fd

    def logged(call):
        def on_fd(fd, *args):
            calls.append((call, names[fd]))
            return getattr(os, call)(fd, *args)
        return on_fd

    def replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        return os.replace(src, dst)

    return _OsSpy(open=open_, write=logged("write"), fsync=logged("fsync"),
                  close=logged("close"), replace=replace)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestKeyHeadIndex:
    """Open reads each line's key from the head ``put`` writes, not its
    records; a hit is one raw read, digest-checked."""

    def test_open_parses_no_put_written_line(self, tmp_path, monkeypatch):
        writer = RunStore(tmp_path / "s")
        keys = [cell_key("table1", 1, {"n": i}, {"strategy": "idle"}, 1, 0)
                for i in range(64)]
        for i, key in enumerate(keys):
            writer.put(key, [{"i": i}])
        spy = _CountingJson()
        monkeypatch.setattr(store_module, "json", spy)
        reopened = RunStore(tmp_path / "s")
        assert spy.loads_calls == 0
        assert sorted(reopened.keys()) == sorted(keys)

    def test_put_writes_the_head_open_reads(self, store):
        """A change to put's envelope must fail here, not quietly send
        every open down the full-parse path."""
        key = cell_key("table1", 1, {"n": 5}, {"strategy": "idle"}, 1, 0)
        store.put(key, [{"x": 1}])
        with open(_file_of(store, key), "rb") as fh:
            head = store_module._HEAD.match(fh.read())
        assert head is not None and head.group(1).decode("ascii") == key

    def test_intact_head_damaged_body_drops_at_first_get(self, g, tmp_path):
        """A torn append, newline-terminated by the next put, keeps its
        head: it is indexed at open and dropped at its first get."""
        cell = Scenario(5, g, "idle", seed=0)
        key = cell.key()
        reference = json.dumps(list(cell.run()))
        donor = RunStore(tmp_path / "donor")
        cell.run(store=donor)
        with open(_file_of(donor, key), "rb") as fh:
            line = fh.read()
        path = tmp_path / "s"
        writer = RunStore(path)
        with open(os.path.join(path, os.path.basename(_file_of(donor, key))), "ab") as fh:
            fh.write(line[:len(line) // 2])  # a crash mid-append
        writer = RunStore(path)
        other = key[:-1] + ("0" if key[-1] != "0" else "1")
        writer.put(other, [{"x": 1}])  # terminates the torn line

        s = RunStore(path)
        assert key in s and len(s) == 2 and s.stats()["cells"] == 2
        assert s.get(key) is None
        assert (s.hits, s.misses, s.dropped) == (0, 1, 1)
        assert key not in s
        assert json.dumps(list(cell.run(store=s))) == reference
        reopened = RunStore(path)
        assert json.dumps(reopened.get(key)) == reference and reopened.hits == 1
        assert s.verify()["torn_lines"] == 1

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    def test_get_leaves_no_descriptor_open(self, tmp_path):
        """Raw descriptors raise no ResourceWarning, so count them: a
        hit, a miss, a damaged line and a removed file close all."""
        hit, damaged, gone = ("aa" + "0" * 62, "ab" + "0" * 62, "ac" + "0" * 62)
        _legacy_store(tmp_path / "s", [(gone, [{"x": 1}])])
        store = RunStore(tmp_path / "s")
        store.put(hit, [{"x": 1}])
        store.put(damaged, [{"x": 2}])
        log = _file_of(store, damaged)
        with open(log, "rb") as fh:
            data = fh.read()
        with open(log, "wb") as fh:
            fh.write(data.replace(b'{"x":2}', b'{"x":3}'))
        os.remove(_file_of(store, gone))
        before = _open_fds()
        assert store.get(hit) == [{"x": 1}]
        assert store.get("ad" + "0" * 62) is None
        assert store.get(damaged) is None
        assert store.get(gone) is None
        assert _open_fds() == before
        assert (store.hits, store.misses, store.dropped) == (1, 3, 2)


def _row1_sweep(g, seeds=40):
    """A row-1 seed sweep on ``g``: its cells form one batch group."""
    return list(grid(rows=1, graphs=g, strategies="squatter", seeds=list(range(seeds))))


class TestGroupCommit:
    """A batch group is committed in one ``put_many``: one open, one
    write, one fsync and one close of the log, however many keys."""

    def test_one_open_write_and_fsync_per_commit(self, g, tmp_path, monkeypatch):
        plan = list(grid(rows=1, graphs=g, strategies=["squatter", "idle"],
                         seeds=list(range(40))))  # two batch groups
        keys = [cell.key() for cell in plan]
        store = RunStore(tmp_path / "s")
        store.put("ab" * 32, [{"x": 1}])  # the log exists: no directory fsync
        calls = []
        monkeypatch.setattr(store_module, "os", _traced_os(calls))
        _solver_ban(monkeypatch)  # every cell runs in the batch engine
        cold = execute_plan(plan, store=store)
        monkeypatch.undo()
        assert len({key[:2] for key in keys}) > 2
        log = "shard-log.jsonl"
        assert calls == [("open", log), ("write", log), ("fsync", log), ("close", log)] * 2
        assert json.dumps(cold) == json.dumps(execute_plan(plan))
        fresh = RunStore(tmp_path / "s")
        assert json.dumps([fresh.get(key) for key in keys]) == json.dumps(cold)

    def test_warm_replay_never_fsyncs(self, g, tmp_path, monkeypatch):
        plan = _row1_sweep(g)
        cold = execute_plan(plan, store=RunStore(tmp_path / "s"))
        fsyncs = []
        monkeypatch.setattr(store_module, "os", _OsSpy(fsync=fsyncs.append))
        warm = execute_plan(plan, store=RunStore(tmp_path / "s"))
        assert fsyncs == [] and json.dumps(warm) == json.dumps(cold)

    def test_shard_bytes_equal_a_put_per_cell(self, tmp_path):
        cells = [(cell_key("table1", 1, {"n": i}, {"strategy": "idle"}, 1, 0), [{"i": i}])
                 for i in range(300)]
        one, many = RunStore(tmp_path / "one"), RunStore(tmp_path / "many")
        for key, records in cells:
            one.put(key, records)
        many.put_many(cells)
        names = sorted(os.listdir(one.path))
        assert names == sorted(os.listdir(many.path))
        for name in names:
            with open(os.path.join(one.path, name), "rb") as a, \
                    open(os.path.join(many.path, name), "rb") as b:
                assert a.read() == b.read(), name
        reloaded = RunStore(many.path)
        assert (many._index, many._ends) == (reloaded._index, reloaded._ends)
        assert many.puts == len(cells) == len(reloaded)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="counts descriptors in /proc/self/fd")
    def test_commit_leaves_no_descriptor_open(self, g, tmp_path, monkeypatch):
        """Raw descriptors raise no ResourceWarning, so count them: a
        group commit and a commit whose fsync fails close every one."""
        store = RunStore(tmp_path / "s")
        before = _open_fds()
        execute_plan(_row1_sweep(g), store=store)
        assert _open_fds() == before

        def no_space(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(store_module, "os", _OsSpy(fsync=no_space))
        with pytest.raises(OSError):
            store.put_many([("a%d" % i + "0" * 62, [{"i": i}]) for i in range(10)])
        assert _open_fds() == before


def _mixed_plan(g):
    """Row-1 cells, which form one batch group, and row-5 cells, which
    run per cell."""
    return list(grid(rows=[1, 5], graphs=g, strategies="squatter", seeds=list(range(6))))


class TestLegacyLayout:
    """A store of v1.23.0's key-prefix shards stays warm under the log."""

    def test_legacy_store_opens_fully_warm(self, g, tmp_path):
        plan = _mixed_plan(g)
        cold = execute_plan(plan)
        path = tmp_path / "s"
        _legacy_store(path, [(cell.key(), records) for cell, records in zip(plan, cold)])
        legacy = _files(path)
        assert len(legacy) > 2  # meta.json and several shards
        store = RunStore(path)
        warm = execute_plan(plan, store=store)
        assert json.dumps(warm) == json.dumps(cold)
        assert (store.hits, store.misses, store.puts) == (len(plan), 0, 0)
        assert _files(path) == legacy

    def test_commit_to_a_legacy_store_writes_only_the_log(self, tmp_path):
        path = tmp_path / "s"
        _legacy_store(path, [("ab" + "0" * 62, [{"x": 0}])])
        legacy = _files(path)
        cells = [("ab" + "1" * 62, [{"x": 1}]), ("cd" + "0" * 62, [{"x": 2}])]
        RunStore(path).put_many(cells)
        after = _files(path)
        assert after.pop("shard-log.jsonl") == b"".join(_line(*cell) for cell in cells)
        assert after == legacy

    def test_the_log_wins_a_key_both_hold(self, tmp_path):
        path = tmp_path / "s"
        key = "ab" + "0" * 62
        _legacy_store(path, [(key, [{"v": "legacy"}])])
        RunStore(path).put(key, [{"v": "log"}])
        # A v1.23.0 writer appends to the key's shard after that.
        with open(os.path.join(path, "shard-ab.jsonl"), "ab") as fh:
            fh.write(_line(key, [{"v": "later legacy"}]))
        fresh = RunStore(path)
        assert fresh.get(key) == [{"v": "log"}]
        assert _file_of(fresh, key) == os.path.join(fresh.path, "shard-log.jsonl")
        assert fresh.verify()["stale_lines"] == 2

    def test_compact_folds_every_file_into_the_log(self, g, tmp_path):
        plan = _mixed_plan(g)
        cold = execute_plan(plan)
        cells = [(cell.key(), records) for cell, records in zip(plan, cold)]
        path = tmp_path / "s"
        _legacy_store(path, cells)
        store = RunStore(path)
        store.put(*cells[0])  # one key in a legacy shard and the log
        report = store.compact()
        assert report == {"reclaimed_bytes": len(_line(*cells[0])),
                          "dropped_lines": 1, "cells": len(plan)}
        assert sorted(os.listdir(path)) == ["meta.json", "shard-log.jsonl"]
        fresh = RunStore(path)
        assert json.dumps([fresh.get(key) for key, _ in cells]) == json.dumps(cold)
        assert (fresh.hits, fresh.misses) == (len(plan), 0)
        assert fresh.verify()["stale_lines"] == 0


#: The calls that fsync the store directory, as ``_traced_os`` logs them.
_DIRECTORY_FSYNC = [("open", "."), ("fsync", "."), ("close", ".")]


def _replaced(name):
    """The calls that atomically replace file ``name``, durably."""
    tmp = name + ".tmp"
    return ([("open", tmp), ("write", tmp), ("fsync", tmp), ("close", tmp),
             ("replace", name)] + _DIRECTORY_FSYNC)


class TestDurability:
    """A file's fsync does not make its directory entry durable, so the
    store directory is fsynced after every rename and after the commit
    that creates the log; a rename's file is fsynced before it."""

    def test_creation_fsyncs_meta_then_the_directory(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(store_module, "os", _traced_os(calls))
        RunStore(tmp_path / "s")
        assert calls == _replaced("meta.json")
        monkeypatch.undo()
        with open(tmp_path / "s" / "meta.json", "rb") as fh:
            assert fh.read() == (b'{"format": "repro-run-store", "schema_version": %d}\n'
                                 % SCHEMA_VERSION)

    def test_the_commit_creating_the_log_fsyncs_the_directory(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "s")
        calls = []
        monkeypatch.setattr(store_module, "os", _traced_os(calls))
        store.put("ab" * 32, [{"x": 1}])
        store.put("cd" * 32, [{"x": 2}])
        log = "shard-log.jsonl"
        commit = [("open", log), ("write", log), ("fsync", log), ("close", log)]
        assert calls == commit + _DIRECTORY_FSYNC + commit

    @pytest.mark.parametrize("maintenance", ["compact", "repair"])
    def test_a_rewrite_fsyncs_the_file_then_renames_then_the_directory(
            self, tmp_path, monkeypatch, maintenance):
        store = RunStore(tmp_path / "s")
        key = "cc" + "0" * 62
        store.put(key, [{"v": 1}])
        store.put(key, [{"v": 2}])  # superseded: compact's work
        with open(_file_of(store, key), "ab") as fh:
            fh.write(b'{"key": "cc1')  # torn: repair's work
        calls = []
        monkeypatch.setattr(store_module, "os", _traced_os(calls))
        getattr(store, maintenance)()
        assert calls == _replaced("shard-log.jsonl")
        monkeypatch.undo()
        assert RunStore(tmp_path / "s").get(key) == [{"v": 2}]

    def test_skipped_where_a_directory_cannot_be_opened(self, tmp_path, monkeypatch):
        def no_directories(path, *args):
            if os.path.isdir(path):  # as on Windows
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
            return os.open(path, *args)

        monkeypatch.setattr(store_module, "os", _OsSpy(open=no_directories))
        store = RunStore(tmp_path / "s")
        key = "cc" + "0" * 62
        store.put(key, [{"v": 1}])
        store.put(key, [{"v": 2}])
        assert store.compact()["dropped_lines"] == 1
        monkeypatch.undo()
        assert RunStore(tmp_path / "s").get(key) == [{"v": 2}]


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

    def test_killed_batched_sweep_resumes_byte_identical(self, g, tmp_path, monkeypatch):
        """A batch group's commit dies part-way through its one write: a
        fresh handle indexes exactly the complete lines, and the resume
        recomputes only the cells whose lines are missing."""
        plan = _row1_sweep(g)
        uninterrupted = execute_plan(plan)
        store = RunStore(tmp_path / "store")
        written = []

        def dying_write(fd, data):
            # Ten bytes into a line past the middle, then death.
            cut = bytes(data).index(b"\n", len(data) // 2) + 11
            written.append(bytes(data[:cut]))
            os.write(fd, written[-1])
            raise KeyboardInterrupt("simulated crash")

        monkeypatch.setattr(store_module, "os", _OsSpy(write=dying_write))
        with pytest.raises(KeyboardInterrupt):
            execute_plan(plan, store=store)
        monkeypatch.undo()
        (data,) = written
        complete = {json.loads(line)["key"] for line in data.split(b"\n")[:-1]}
        assert 1 < len(complete) < len(plan) - 1

        resumed_store = RunStore(tmp_path / "store")
        assert set(resumed_store.keys()) == complete
        assert resumed_store.verify()["torn_shards"] == 1
        resumed = execute_plan(plan, store=resumed_store)
        assert json.dumps(resumed) == json.dumps(uninterrupted)
        assert resumed_store.hits == len(complete)
        assert resumed_store.puts == len(plan) - len(complete) > 1
        final = RunStore(tmp_path / "store")
        assert json.dumps([final.get(c.key()) for c in plan]) == json.dumps(uninterrupted)


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
        shard = _file_of(store, key_b)
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
        shard = _file_of(store, key_b)
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
