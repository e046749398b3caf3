"""Chaos suite: the executor's fault paths under deterministic injection.

Every test here drives :func:`execute_plan` (or the CLI above it) through
a seeded :class:`FaultPlan` — worker crashes, hangs past the timeout,
transient errors, torn store writes — and asserts the repo's signature
invariant from the fault-tolerance side: **surviving records are
byte-identical to a clean serial run**, quarantined cells surface as
structured failure records, and a resumed sweep recomputes zero
persisted cells.

A SIGALRM hang guard (the in-container stand-in for ``pytest-timeout``,
which CI installs; see .github/workflows/ci.yml) bounds every test, so a
regression in the timeout/retry machinery fails fast instead of wedging
the suite.
"""

import json
import math
import multiprocessing
import os
import random
import signal

import pytest

from repro.analysis import experiments
from repro.analysis.experiments import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    cell_key_of,
    execute_plan,
)
from repro.analysis.faults import (
    FAULT_MODES,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
    TransientFault,
    inject,
)
from repro.analysis.metrics import summarize
from repro.analysis.store import RunStore, _records_sha
from repro.cli import main
from repro.errors import ConfigurationError, SweepFaultError
from repro.graphs import random_connected
from repro.scenarios import ResultSet, Scenario, grid

#: Generous per-test wall-clock bound; any legitimate test here finishes
#: in seconds, so tripping it means a hang in the machinery under test.
_GUARD_SECONDS = 120


@pytest.fixture(autouse=True)
def _hang_guard():
    """Equivalent per-test guard to pytest-timeout (not installable in
    this container): SIGALRM aborts any test that wedges."""

    def _abort(signum, frame):
        raise RuntimeError(
            f"test exceeded the {_GUARD_SECONDS}s hang guard"
        )

    old = signal.signal(signal.SIGALRM, _abort)
    signal.alarm(_GUARD_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="module")
def g():
    return random_connected(8, seed=1)


@pytest.fixture(scope="module")
def cells(g):
    """Four fast, independent cells (two rows x two strategies)."""
    return [
        Scenario(serial, g, strategy, seed=0)
        for serial in (5, 6)
        for strategy in ("idle", "squatter")
    ]


@pytest.fixture(scope="module")
def keys(cells):
    return [cell_key_of(c) for c in cells]


@pytest.fixture(scope="module")
def clean(cells):
    """The clean serial baseline every chaos run must reproduce."""
    return execute_plan(cells)


#: No-sleep retry policy: chaos tests should not spend wall clock
#: backing off.
FAST = ExecutionPolicy(max_retries=2, backoff=0.0)


# --------------------------------------------------------------------- #
# Fault primitives
# --------------------------------------------------------------------- #

class TestFaultSpec:
    def test_modes_validated(self):
        with pytest.raises(ConfigurationError, match="unknown fault mode"):
            FaultSpec("explode")
        for mode in FAULT_MODES:
            assert FaultSpec(mode).mode == mode

    def test_attempts_validated(self):
        with pytest.raises(ConfigurationError, match="attempts"):
            FaultSpec("error", attempts=0)
        with pytest.raises(ConfigurationError, match="attempts"):
            FaultSpec("error", attempts=True)
        assert FaultSpec("error", attempts=None).attempts is None

    def test_active_window(self):
        spec = FaultSpec("error", attempts=2)
        assert [spec.active(k) for k in (1, 2, 3)] == [True, True, False]
        poison = FaultSpec("error", attempts=None)
        assert all(poison.active(k) for k in (1, 10, 1000))

    def test_inject_error_and_inactive(self):
        spec = FaultSpec("error", attempts=1, message="boom")
        with pytest.raises(TransientFault, match=r"boom \(attempt 1\)"):
            inject(spec, 1)
        inject(spec, 2)  # inactive: no-op
        inject(None, 1)  # no fault: no-op

    def test_inject_serial_crash_is_exception(self):
        with pytest.raises(SimulatedCrash):
            inject(FaultSpec("crash"), 1, serial=True)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="FaultSpec"):
            FaultPlan({"k": "crash"})
        with pytest.raises(ConfigurationError, match="cell-key"):
            FaultPlan({1: FaultSpec("crash")})

    def test_lookup(self):
        spec = FaultSpec("error")
        plan = FaultPlan({"abc": spec})
        assert plan.for_key("abc") is spec
        assert plan.for_key("zzz") is None
        assert plan.for_key(None) is None
        assert "abc" in plan and len(plan) == 1

    def test_pickle_round_trip(self):
        import pickle

        plan = FaultPlan({"abc": FaultSpec("hang", seconds=5.0)}, seed=7)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_sample_deterministic(self, keys):
        a = FaultPlan.sample(keys, seed=3, crash=1, hang=1, transient=1)
        b = FaultPlan.sample(keys, seed=3, crash=1, hang=1, transient=1)
        assert a == b and len(a) == 3
        assert sorted(s.mode for s in a.specs.values()) == [
            "crash", "error", "hang"]
        c = FaultPlan.sample(keys, seed=4, crash=1, hang=1, transient=1)
        assert set(a.specs) != set(c.specs) or a == c  # seed-dependent draw

    def test_sample_overdraw_rejected(self, keys):
        with pytest.raises(ConfigurationError, match="cannot sample"):
            FaultPlan.sample(keys, crash=len(keys) + 1)


class TestExecutionPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="timeout"):
            ExecutionPolicy(timeout=0)
        with pytest.raises(ConfigurationError, match="max_retries"):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError, match="backoff"):
            ExecutionPolicy(backoff=-0.1)

    def test_backoff_schedule(self):
        # The delay doubles from `backoff` and is capped at 2 s.
        p = ExecutionPolicy(backoff=0.1)
        assert [p.delay(k) for k in range(1, 7)] == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        assert ExecutionPolicy(backoff=0.0).delay(5) == 0.0

    def test_defaults(self):
        assert DEFAULT_POLICY == ExecutionPolicy()
        assert DEFAULT_POLICY.strict is False


# --------------------------------------------------------------------- #
# Transient faults: retry to byte-identical records
# --------------------------------------------------------------------- #

class TestTransientFaults:
    def test_serial_retry_recovers(self, cells, keys, clean):
        faults = FaultPlan({keys[0]: FaultSpec("error", attempts=2)})
        got = execute_plan(cells, policy=FAST, faults=faults)
        assert got == clean

    def test_parallel_retry_recovers(self, cells, keys, clean):
        faults = FaultPlan({k: FaultSpec("error", attempts=1) for k in keys[:2]})
        got = execute_plan(cells, workers=2, policy=FAST, faults=faults)
        assert got == clean

    def test_poison_cell_quarantined(self, cells, keys, clean):
        faults = FaultPlan({keys[1]: FaultSpec("error", attempts=None,
                                               message="wedged")})
        got = execute_plan(cells, policy=FAST, faults=faults)
        assert [got[i] for i in (0, 2, 3)] == [clean[i] for i in (0, 2, 3)]
        [rec] = got[1]
        assert rec["success"] is False
        assert rec["failed"] is True
        assert rec["reason"] == "TransientFault"
        assert "wedged" in rec["error"]
        assert rec["attempts"] == FAST.max_retries + 1
        assert rec["key"] == keys[1]
        assert rec["serial"] == cells[1].serial
        assert rec["strategy"] == cells[1].strategy

    def test_poison_cell_quarantined_parallel(self, cells, keys, clean):
        faults = FaultPlan({keys[1]: FaultSpec("error", attempts=None)})
        got = execute_plan(cells, workers=2, policy=FAST, faults=faults)
        assert [got[i] for i in (0, 2, 3)] == [clean[i] for i in (0, 2, 3)]
        assert got[1][0]["failed"] is True
        assert got[1][0]["attempts"] == FAST.max_retries + 1

    def test_strict_raises_with_key_in_message(self, cells, keys):
        faults = FaultPlan({keys[1]: FaultSpec("error", attempts=None)})
        strict = ExecutionPolicy(max_retries=1, backoff=0.0, strict=True)
        with pytest.raises(SweepFaultError, match=keys[1]):
            execute_plan(cells, policy=strict, faults=faults)

    def test_zero_retries_quarantines_first_failure(self, cells, keys):
        faults = FaultPlan({keys[0]: FaultSpec("error", attempts=1)})
        policy = ExecutionPolicy(max_retries=0, backoff=0.0)
        got = execute_plan(cells, policy=policy, faults=faults)
        assert got[0][0]["failed"] is True
        assert got[0][0]["attempts"] == 1

    def test_repro_errors_never_retried(self, g, monkeypatch):
        calls = []
        real = experiments._cell_records

        def rejecting(cell):
            calls.append(cell)
            raise ConfigurationError("deterministic rejection")

        monkeypatch.setattr(experiments, "_cell_records", rejecting)
        cell = Scenario(5, g, "idle", seed=0)
        with pytest.raises(ConfigurationError, match="deterministic rejection"):
            execute_plan([cell], policy=FAST)
        assert len(calls) == 1  # no retry: rejection is not a fault
        monkeypatch.setattr(experiments, "_cell_records", real)


# --------------------------------------------------------------------- #
# Crashes: pool respawn, attribution, quarantine
# --------------------------------------------------------------------- #

class TestCrashes:
    def test_serial_simulated_crash_retries(self, cells, keys, clean):
        faults = FaultPlan({keys[0]: FaultSpec("crash", attempts=1)})
        got = execute_plan(cells, policy=FAST, faults=faults)
        assert got == clean

    def test_worker_crash_respawns_and_recovers(self, cells, keys, clean):
        faults = FaultPlan({keys[0]: FaultSpec("crash", attempts=1)})
        got = execute_plan(cells, workers=2, policy=FAST, faults=faults)
        assert got == clean

    def test_multiple_worker_crashes_recover(self, cells, keys, clean):
        # Two crashing cells over two workers: the executor may see the
        # break with several cells in flight and must fall back to
        # suspect isolation instead of quarantining an innocent.
        faults = FaultPlan({k: FaultSpec("crash", attempts=1) for k in keys[:2]})
        got = execute_plan(cells, workers=2, policy=FAST, faults=faults)
        assert got == clean

    def test_poison_crash_quarantined(self, cells, keys, clean):
        faults = FaultPlan({keys[2]: FaultSpec("crash", attempts=None)})
        policy = ExecutionPolicy(max_retries=1, backoff=0.0)
        got = execute_plan(cells, workers=2, policy=policy, faults=faults)
        assert [got[i] for i in (0, 1, 3)] == [clean[i] for i in (0, 1, 3)]
        [rec] = got[2]
        assert rec["failed"] is True
        assert rec["reason"] == "WorkerCrash"
        assert rec["key"] == keys[2]

    def test_completed_cells_survive_crash(self, cells, keys, tmp_path):
        # A poison crash must not cost the other cells their store
        # entries: everything that completed is persisted.
        store = RunStore(tmp_path / "store")
        faults = FaultPlan({keys[3]: FaultSpec("crash", attempts=None)})
        policy = ExecutionPolicy(max_retries=0, backoff=0.0)
        got = execute_plan(cells, workers=2, store=store, policy=policy,
                           faults=faults)
        assert got[3][0]["failed"] is True
        for i in (0, 1, 2):
            assert store.get(keys[i]) == got[i]


# --------------------------------------------------------------------- #
# Hangs: deadline kill and retry
# --------------------------------------------------------------------- #

class TestHangs:
    def test_hung_cell_killed_and_retried(self, cells, keys, clean):
        faults = FaultPlan(
            {keys[0]: FaultSpec("hang", attempts=1, seconds=60.0)})
        policy = ExecutionPolicy(timeout=1.0, max_retries=2, backoff=0.0)
        got = execute_plan(cells, workers=2, policy=policy, faults=faults)
        assert got == clean

    def test_permanent_hang_quarantined(self, cells, keys, clean):
        faults = FaultPlan(
            {keys[0]: FaultSpec("hang", attempts=None, seconds=60.0)})
        policy = ExecutionPolicy(timeout=0.5, max_retries=1, backoff=0.0)
        got = execute_plan(cells, workers=2, policy=policy, faults=faults)
        assert got[1:] == clean[1:]
        [rec] = got[0]
        assert rec["failed"] is True
        assert rec["reason"] == "TimeoutError"
        assert "0.5" in rec["error"]


# --------------------------------------------------------------------- #
# Store interplay: quarantine is never cached; resume recomputes nothing
# --------------------------------------------------------------------- #

class TestStoreInterplay:
    def test_failure_records_not_persisted(self, cells, keys, tmp_path):
        store = RunStore(tmp_path / "store")
        faults = FaultPlan({keys[1]: FaultSpec("error", attempts=None)})
        got = execute_plan(cells, store=store, policy=FAST, faults=faults)
        assert got[1][0]["failed"] is True
        assert keys[1] not in store
        assert all(keys[i] in store for i in (0, 2, 3))

    def test_quarantined_cell_recomputes_next_run(self, cells, keys, clean,
                                                  tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        faults = FaultPlan({keys[1]: FaultSpec("error", attempts=None)})
        execute_plan(cells, store=store, policy=FAST, faults=faults)
        # Second run, faults cleared: only the quarantined cell computes.
        calls = []
        real = experiments._cell_records

        def counting(cell):
            calls.append(cell)
            return real(cell)

        monkeypatch.setattr(experiments, "_cell_records", counting)
        warm = RunStore(tmp_path / "store")
        got = execute_plan(cells, store=warm, policy=FAST)
        assert got == clean
        assert len(calls) == 1  # zero recompute of persisted cells

    def test_chaos_run_store_matches_clean_store_bytes(self, cells, keys,
                                                       clean, tmp_path):
        """The signature invariant end to end: a store filled under a
        mixed fault schedule is *byte-identical* (per cell) to one
        filled by a clean serial run."""
        clean_store = RunStore(tmp_path / "clean")
        execute_plan(cells, store=clean_store)
        chaos_store = RunStore(tmp_path / "chaos")
        faults = FaultPlan({
            keys[0]: FaultSpec("crash", attempts=1),
            keys[2]: FaultSpec("error", attempts=2),
        })
        got = execute_plan(cells, workers=2, store=chaos_store,
                           policy=FAST, faults=faults)
        assert got == clean
        for key in keys:
            a, b = clean_store.get(key), chaos_store.get(key)
            assert a == b
            assert _records_sha(a) == _records_sha(b)

    def test_keys_computed_without_store(self, cells, keys):
        """Quarantine records name their cell by content key even in
        store-less runs (the key is computed unconditionally)."""
        faults = FaultPlan({keys[0]: FaultSpec("error", attempts=None)})
        got = execute_plan(cells, policy=FAST, faults=faults)
        assert got[0][0]["key"] == keys[0]


# --------------------------------------------------------------------- #
# Ctrl-C: finished work is flushed before the interrupt propagates
# --------------------------------------------------------------------- #

class TestKeyboardInterrupt:
    def test_parallel_interrupt_flushes_completed_chunks(
            self, cells, keys, clean, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        real_wait = experiments.wait
        fired = []

        def interrupting_wait(*args, **kwargs):
            # Let the first wait complete normally (harvesting at least
            # one finished future into `done`), then simulate Ctrl-C
            # arriving before those results are applied.
            done, not_done = real_wait(*args, **kwargs)
            if done and not fired:
                fired.append(True)
                raise KeyboardInterrupt
            return done, not_done

        monkeypatch.setattr(experiments, "wait", interrupting_wait)
        with pytest.raises(KeyboardInterrupt):
            execute_plan(cells, workers=2, store=store, policy=FAST)
        monkeypatch.setattr(experiments, "wait", real_wait)
        # The completed-but-unapplied cells were flushed: at least one
        # cell reached the store, and whatever did is byte-faithful.
        persisted = [i for i, k in enumerate(keys) if k in store]
        assert persisted
        for i in persisted:
            assert store.get(keys[i]) == clean[i]
        # Resume finishes the plan without touching persisted cells.
        warm = RunStore(tmp_path / "store")
        assert execute_plan(cells, store=warm) == clean
        assert warm.hits == len(persisted)

    def test_serial_interrupt_propagates(self, cells, monkeypatch):
        def boom(cell):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiments, "_cell_records", boom)
        with pytest.raises(KeyboardInterrupt):
            execute_plan(cells, policy=FAST)


# --------------------------------------------------------------------- #
# Aggregation: failure records in ResultSet / summarize / success_rate
# --------------------------------------------------------------------- #

class TestFailureAggregation:
    @pytest.fixture()
    def mixed(self, g, cells, keys):
        faults = FaultPlan({keys[1]: FaultSpec("error", attempts=None)})
        lists = execute_plan(cells, policy=FAST, faults=faults)
        return ResultSet(rec for recs in lists for rec in recs)

    def test_failures_accessor(self, mixed):
        failures = mixed.failures()
        assert len(failures) == 1
        assert failures[0]["failed"] is True
        # A non-dispersed-but-executed run is not a "failure" record.
        assert all(r.get("failed") for r in failures)

    def test_success_rate_excludes_quarantines(self, mixed):
        """Quarantine records leave the numerator AND the denominator:
        the rate is the rate of the records that actually ran, so the
        rate, the round statistics, and ``failures()`` agree on what
        "failed" means."""
        ran = mixed.filter(lambda r: not r.get("failed"))
        assert mixed.success_rate() == ran.success_rate()
        assert mixed.success_rate() == pytest.approx(
            sum(1 for r in ran if r["success"]) / len(ran)
        )

    def test_success_rate_only_quarantines_is_nan(self, mixed):
        """A set of records in which nothing ran has no rate — not a
        vacuous 1.0, not a damning 0.0."""
        assert math.isnan(mixed.failures().success_rate())

    def test_summarize_rate_matches_success_rate(self, mixed):
        """Per-group summarize rates equal success_rate() on the same
        group — one semantics, two entry points."""
        for row in summarize(list(mixed), "strategy"):
            group = mixed.filter(strategy=row["strategy"])
            rate = group.success_rate()
            if math.isnan(rate):
                assert math.isnan(row["success_rate"])
            else:
                assert row["success_rate"] == rate

    def test_summarize_tolerates_failures(self, mixed):
        rows = summarize(list(mixed), "strategy")
        by_strategy = {r["strategy"]: r for r in rows}
        assert by_strategy["squatter"]["failed"] == 1
        assert by_strategy["idle"]["failed"] == 0
        # Round stats aggregate over the records that ran.
        assert by_strategy["idle"]["rounds_simulated_mean"] > 0

    def test_summarize_clean_shape_unchanged(self, cells, clean):
        """No failures -> byte-identical summary shape (no 'failed'
        column appears)."""
        flat = [rec for recs in clean for rec in recs]
        rows = summarize(flat, "strategy")
        assert all("failed" not in r for r in rows)

    def test_grid_run_threads_policy_and_faults(self, g):
        gr = grid(rows=[5], graphs=g, strategies=["idle", "squatter"])
        faults = FaultPlan({gr.keys()[0]: FaultSpec("error", attempts=None)})
        results = gr.run(policy=FAST, faults=faults)
        assert len(results.failures()) == 1
        clean_results = gr.run()
        assert results.filter(lambda r: not r.get("failed")) == \
            [r for r in clean_results if r["strategy"] != results.failures()[0]["strategy"]]


# --------------------------------------------------------------------- #
# Torn-write durability (satellite): a writer killed mid-put
# --------------------------------------------------------------------- #

def _torn_writer(path: str, key_ok: str, key_torn: str, offset_seed: int):
    """Subprocess body: one clean put, then die partway through a second.

    The torn put is made literal: the exact bytes ``RunStore.put`` would
    append are cut at a seeded random offset, written, flushed — and the
    process exits without cleanup, as an OOM kill would.
    """
    store = RunStore(path)
    store.put(key_ok, [{"v": 1, "rounds": 40}])
    line = json.dumps(
        {"key": key_torn,
         "sha": _records_sha([{"v": 2}]),
         "records": [{"v": 2}]},
        separators=(",", ":"),
    )
    data = (line + "\n").encode("utf-8")
    offset = random.Random(offset_seed).randrange(1, len(data) - 1)
    shard = store._shard_path(key_torn)
    with open(shard, "ab") as fh:
        fh.write(data[:offset])
        fh.flush()
        os.fsync(fh.fileno())
    os._exit(1)


class TestTornWriteDurability:
    @pytest.mark.parametrize("offset_seed", [0, 1, 2, 3])
    def test_killed_writer_loses_only_inflight_cell(self, tmp_path,
                                                    offset_seed):
        path = str(tmp_path / "store")
        # Keys sharing a shard make the torn tail sit directly after the
        # good line — the worst case for the line-oriented loader.
        key_ok = "aa" + "0" * 62
        key_torn = "aa" + "1" * 62
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_torn_writer,
                           args=(path, key_ok, key_torn, offset_seed))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 1
        store = RunStore(path)
        assert store.get(key_ok) == [{"v": 1, "rounds": 40}]
        assert store.get(key_torn) is None  # only the in-flight cell lost
        report = store.verify()
        assert report["ok"] is True  # no *live* entry is corrupt
        assert report["torn_lines"] + report["torn_shards"] >= 1
        # A put after reopening lands cleanly despite the torn tail.
        store.put(key_torn, [{"v": 2}])
        assert RunStore(path).get(key_torn) == [{"v": 2}]

    def test_repair_and_compact_leave_verifiable_store(self, tmp_path):
        path = str(tmp_path / "store")
        key_ok = "ab" + "0" * 62
        key_torn = "ab" + "1" * 62
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_torn_writer,
                           args=(path, key_ok, key_torn, 5))
        proc.start()
        proc.join(timeout=30)
        assert proc.exitcode == 1
        store = RunStore(path)
        repair = store.repair()
        assert repair["dropped_lines"] >= 1
        report = store.verify()
        assert report["ok"] and report["torn_lines"] == 0
        assert store.get(key_ok) == [{"v": 1, "rounds": 40}]
        # Supersede the surviving cell, compact, and re-verify.
        store.put(key_ok, [{"v": 9}])
        compact = store.compact()
        assert compact["dropped_lines"] == 1
        assert compact["reclaimed_bytes"] > 0
        final = RunStore(path)
        assert final.get(key_ok) == [{"v": 9}]
        assert final.verify()["ok"]
        assert final.verify()["stale_lines"] == 0


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #

class TestCLI:
    def test_sweep_nonzero_exit_and_table_on_quarantine(
            self, monkeypatch, capsys):
        def always_failing(cell):
            raise RuntimeError("injected CLI fault")

        monkeypatch.setattr(experiments, "_cell_records", always_failing)
        code = main(["sweep", "--n", "8", "--strategies", "idle",
                     "--serials", "5", "--retries", "0"])
        out = capsys.readouterr().out
        assert code == 1
        assert "Quarantined cells (1)" in out
        assert "RuntimeError" in out
        assert "injected CLI fault" in out

    def test_sweep_strict_flag_raises(self, monkeypatch):
        def always_failing(cell):
            raise RuntimeError("injected CLI fault")

        monkeypatch.setattr(experiments, "_cell_records", always_failing)
        with pytest.raises(SweepFaultError):
            main(["sweep", "--n", "8", "--strategies", "idle",
                  "--serials", "5", "--retries", "0", "--strict"])

    def test_store_verify_cli(self, tmp_path, capsys):
        path = str(tmp_path / "store")
        store = RunStore(path)
        key = "cd" + "0" * 62
        store.put(key, [{"v": 1}])
        assert main(["store", "verify", path]) == 0
        out = capsys.readouterr().out
        assert "status           : ok" in out
        # Corrupt the entry on disk; verify now fails, --repair heals.
        shard = store._shard_path(key)
        with open(shard, "rb") as fh:
            data = fh.read().replace(b'{"v":1}', b'{"v":7}')
        with open(shard, "wb") as fh:
            fh.write(data)
        assert main(["store", "verify", path]) == 1
        assert main(["store", "verify", path, "--repair"]) == 0
        assert main(["store", "verify", path]) == 0

    def test_store_compact_cli(self, tmp_path, capsys):
        path = str(tmp_path / "store")
        store = RunStore(path)
        key = "ef" + "0" * 62
        store.put(key, [{"v": 1}])
        store.put(key, [{"v": 2}])
        assert main(["store", "compact", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dropped_lines"] == 1
        assert RunStore(path).get(key) == [{"v": 2}]

    def test_store_subcommands_refuse_missing_store(self, tmp_path):
        missing = str(tmp_path / "nope")
        for argv in (["store", "verify", missing],
                     ["store", "compact", missing]):
            with pytest.raises(SystemExit, match="not a run store"):
                main(argv)
        assert not os.path.exists(missing)  # no store created at the typo
