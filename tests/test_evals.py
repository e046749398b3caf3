"""Eval harness: registry, leaderboard determinism, and the drift gate.

The contracts under test:

* every registered suite builds a non-empty grid, and the set of
  checked-in ``benchmarks/EVAL_*.json`` pins equals the registry;
* one suite run produces **byte-identical** pinnable payloads and
  ``--json`` documents across serial, ``workers=2``, warm-store, and
  (where eligible) batched execution — and the warm run makes zero
  solver calls (raising stubs prove it);
* ``benchmarks/check_evals.py`` fails loudly, naming the offending
  path, on every mutation class: flipped success counts, deleted solver
  rows, stray pins for unregistered suites, missing pins, and
  non-canonical encodings;
* the ``repro eval`` CLI matches the checked-in golden fixture
  byte-for-byte in ``--json`` mode and prints an aligned table
  otherwise.
"""

import importlib.util
import json
import math
import pathlib
import shutil

import pytest

from repro.analysis import experiments
from repro.analysis.store import RunStore
from repro.cli import main
from repro.errors import ConfigurationError
from repro.evals import (
    SUITES,
    EvalReport,
    compare_payloads,
    dump_expected,
    expected_filename,
    get_suite,
    load_expected,
    run_suite,
    suite_names,
    write_expected,
)
from repro.scenarios import Scenario, ScenarioGrid, grid
from repro.graphs import ring

DATA = pathlib.Path(__file__).parent / "data"
BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"

#: The cheap suites tests re-run freely (a handful of cells each).
CHEAP = "torus_strong"


def _solver_ban(monkeypatch):
    """Make the per-cell entry point raise: any call proves a warm-store
    run recomputed instead of answering from disk."""

    def boom(*args, **kwargs):
        raise AssertionError("solver invoked despite warm store")

    monkeypatch.setattr(experiments, "_cell_records", boom)


def _load_evals_gate():
    spec = importlib.util.spec_from_file_location(
        "check_evals", BENCHMARKS / "check_evals.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

class TestRegistry:
    def test_every_suite_builds_a_nonempty_grid(self):
        for name, suite in SUITES.items():
            g = suite.build()
            assert isinstance(g, ScenarioGrid) and len(g) > 0, name
            assert all(isinstance(s, Scenario) for s in g)

    def test_suite_names_order_is_registry_order(self):
        assert suite_names() == list(SUITES)

    def test_unknown_suite_raises_naming_registry(self):
        with pytest.raises(ConfigurationError, match="ring_weak_byz"):
            get_suite("nope")

    def test_checked_in_pins_equal_registry(self):
        """Every suite has a pin and every pin has a suite — the same
        union check_evals.py enforces, pinned here so a rename cannot
        land half-done."""
        pins = {p.name[len("EVAL_"):-len(".json")]
                for p in BENCHMARKS.glob("EVAL_*.json")}
        assert pins == set(SUITES)

    def test_builds_are_deterministic(self):
        for suite in SUITES.values():
            assert suite.build().keys() == suite.build().keys()


# --------------------------------------------------------------------- #
# ScenarioGrid union (the suite->grid helper)
# --------------------------------------------------------------------- #

class TestGridUnion:
    @pytest.fixture(scope="class")
    def g(self):
        return ring(6, seed=0)

    def test_concat_dedupes_by_identity(self, g):
        a = grid(rows=[4], graphs=g, strategies=["idle", "squatter"])
        b = grid(rows=[4], graphs=g, strategies=["squatter", "crash"])
        union = ScenarioGrid.concat([a, b])
        assert [s.strategy for s in union] == ["idle", "squatter", "crash"]
        assert len(union) == len(set(union.keys())) == 3

    def test_add_operator(self, g):
        a = grid(rows=[4], graphs=g, strategies="idle")
        assert len(a + a) == 1
        with pytest.raises(TypeError):
            a + [1, 2]

    def test_self_union_is_identity(self, g):
        a = grid(rows=[4, 5], graphs=g, strategies="idle")
        assert ScenarioGrid.concat([a, a]).keys() == a.keys()


# --------------------------------------------------------------------- #
# Determinism: one suite, four execution modes, identical bytes
# --------------------------------------------------------------------- #

class TestEvalDeterminism:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return run_suite(CHEAP)

    def test_parallel_matches_serial(self, serial_report):
        parallel = run_suite(CHEAP, workers=2)
        assert dump_expected(parallel.expected_payload()) == \
            dump_expected(serial_report.expected_payload())
        assert parallel.json_payload() == serial_report.json_payload()

    def test_warm_store_matches_and_makes_zero_solver_calls(
            self, serial_report, tmp_path, monkeypatch):
        store = RunStore(tmp_path / "store")
        cold = run_suite(CHEAP, store=store)
        assert cold.json_payload() == serial_report.json_payload()
        _solver_ban(monkeypatch)
        warm = run_suite(CHEAP, store=store)
        assert warm.json_payload() == serial_report.json_payload()
        assert store.hits == len(warm.results)

    def test_warm_store_answers_batched_suite(self, tmp_path, monkeypatch):
        """batch_scale flows through the struct-of-arrays engine cold;
        warm it must come purely from the store — the batch engine is
        banned alongside the per-cell solvers."""
        from repro.analysis import batching

        store = RunStore(tmp_path / "store")
        cold = run_suite("batch_scale", store=store)

        def boom(*args, **kwargs):
            raise AssertionError("batch engine invoked despite warm store")

        _solver_ban(monkeypatch)
        monkeypatch.setattr(batching, "run_batch_group", boom)
        warm = run_suite("batch_scale", store=store)
        assert warm.json_payload() == cold.json_payload()

    def test_batched_matches_per_cell(self):
        """The suite's batched records equal each scenario run as its own
        one-cell plan (a plan batches only with several pending cells)."""
        batched = run_suite("batch_scale")
        per_cell = [rec for s in get_suite("batch_scale").build() for rec in s.run()]
        assert json.dumps(list(batched.results)) == json.dumps(per_cell)

    def test_wall_time_never_in_comparable_payloads(self, serial_report):
        text = json.dumps(serial_report.json_payload())
        assert "wall" not in text
        assert "wall" not in dump_expected(serial_report.expected_payload())
        # ...but the human table does show it.
        assert "wall_s" in serial_report.table()


# --------------------------------------------------------------------- #
# Leaderboard semantics
# --------------------------------------------------------------------- #

class TestLeaderboard:
    def _fabricated(self):
        """An EvalReport over hand-built records: serial 6 clean, serial
        7 fully quarantined."""
        suite = get_suite(CHEAP)
        records = [
            {"serial": 6, "strategy": "impersonator", "success": True,
             "rounds_simulated": 5, "rounds_total": 5},
            {"serial": 6, "strategy": "id_cycler", "success": False,
             "rounds_simulated": 9, "rounds_total": 9},
            {"serial": 7, "strategy": "impersonator", "failed": True,
             "reason": "error", "error": "boom", "attempts": 3,
             "key": "ab" * 32},
        ]
        return EvalReport(suite, records, {6: 0.5, 7: 0.0})

    def test_ordering_and_quarantine_column(self):
        board = self._fabricated().leaderboard()
        assert [r["serial"] for r in board] == [6, 7]  # nan rate sorts last
        assert board[0]["success_rate"] == 0.5
        assert math.isnan(board[1]["success_rate"])
        assert board[0]["quarantined"] == 0 and board[1]["quarantined"] == 1

    def test_clean_board_has_no_quarantine_column(self):
        board = run_suite(CHEAP).leaderboard()
        assert all("quarantined" not in r for r in board)

    def test_degraded_run_refuses_expected_payload(self):
        report = self._fabricated()
        with pytest.raises(ConfigurationError, match="quarantined"):
            report.expected_payload()
        doc = report.json_payload()
        assert doc["quarantined"] == 1 and "expected" not in doc

    def test_wall_column_only_on_request(self):
        report = self._fabricated()
        assert "wall_s" not in report.leaderboard()[0]
        assert report.leaderboard(wall=True)[0]["wall_s"] == 0.5


# --------------------------------------------------------------------- #
# Golden CLI outputs
# --------------------------------------------------------------------- #

class TestCliGolden:
    def test_json_matches_checked_in_fixture(self, capsys):
        """The full ring_weak_byz leaderboard document, byte-for-byte.
        Regenerate: python -m repro eval ring_weak_byz --json"""
        assert main(["eval", "ring_weak_byz", "--json"]) == 0
        fixture = (DATA / "eval_ring_weak_byz_golden.json").read_text()
        assert capsys.readouterr().out == fixture

    def test_table_columns_align(self, capsys):
        assert main(["eval", CHEAP]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        title, header, rule = lines[0], lines[1], lines[2]
        assert title.startswith(f"eval {CHEAP}")
        body = lines[1:]
        assert len({len(ln) for ln in body}) == 1  # every row same width
        assert set(rule) <= {"-", "+"}
        for column in ("serial", "solver", "success_rate", "wall_s"):
            assert column in header
        # separators line up between header and data rows
        pipes = [i for i, ch in enumerate(header) if ch == "|"]
        for line in body:
            assert all(line[i] == ("|" if line is not rule else "+")
                       for i in pipes)

    def test_solver_subset(self, capsys):
        assert main(["eval", CHEAP, "--solvers", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["expected"]["solvers"]) == ["6"]
        assert [r["serial"] for r in doc["leaderboard"]] == [6]

    def test_solver_subset_accepts_names(self, capsys):
        assert main(["eval", CHEAP, "--solvers", "theorem7", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc["expected"]["solvers"]) == ["6"]

    def test_unknown_solver_rejected(self, capsys):
        assert main(["eval", CHEAP, "--solvers", "4"]) == 2
        err = capsys.readouterr().err
        assert CHEAP in err and "serial 4" in err

    def test_unknown_suite_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "nope"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_registry(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out


# --------------------------------------------------------------------- #
# compare_payloads: precise drift messages
# --------------------------------------------------------------------- #

class TestComparePayloads:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_suite(CHEAP).expected_payload()

    def test_clean(self, payload):
        assert compare_payloads(payload, payload) == []

    def test_format_mismatch_short_circuits(self, payload):
        doctored = dict(payload, format=payload["format"] + 1)
        drift = compare_payloads(doctored, payload, label="pin.json")
        assert len(drift) == 1 and "format" in drift[0]
        assert drift[0].startswith("pin.json: ")

    def test_field_drift_names_solver_class_and_field(self, payload):
        doctored = json.loads(json.dumps(payload))
        doctored["solvers"]["6"]["classes"]["id_cycler"]["successes"] = 0
        drift = compare_payloads(doctored, payload)
        assert any("solver 6" in m and "id_cycler" in m and "successes" in m
                   for m in drift)

    def test_missing_solver_named(self, payload):
        doctored = json.loads(json.dumps(payload))
        del doctored["solvers"]["7"]
        drift = compare_payloads(doctored, payload)
        assert any("solver 7" in m and "no pinned row" in m for m in drift)


# --------------------------------------------------------------------- #
# check_evals.py: mutation acceptance
# --------------------------------------------------------------------- #

class TestCheckEvalsGate:
    @pytest.fixture()
    def gate(self):
        return _load_evals_gate()

    @pytest.fixture()
    def pin_dir(self, tmp_path):
        shutil.copy(BENCHMARKS / expected_filename(CHEAP), tmp_path)
        return tmp_path

    def _pin(self, pin_dir):
        return pin_dir / expected_filename(CHEAP)

    def test_clean_pin_passes(self, gate, pin_dir, capsys):
        assert gate.main(["--suite", CHEAP, "--dir", str(pin_dir)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_flipped_success_fails_naming_path(self, gate, pin_dir, capsys):
        pin = self._pin(pin_dir)
        payload = json.loads(pin.read_text())
        payload["solvers"]["6"]["classes"]["id_cycler"]["successes"] = 0
        write_expected(payload, str(pin))
        assert gate.main(["--suite", CHEAP, "--dir", str(pin_dir)]) == 1
        out = capsys.readouterr().out
        assert str(pin) in out and "successes" in out and "FAIL" in out

    def test_deleted_solver_row_fails_naming_path(self, gate, pin_dir, capsys):
        pin = self._pin(pin_dir)
        payload = json.loads(pin.read_text())
        del payload["solvers"]["7"]
        write_expected(payload, str(pin))
        assert gate.main(["--suite", CHEAP, "--dir", str(pin_dir)]) == 1
        out = capsys.readouterr().out
        assert str(pin) in out and "solver 7" in out

    def test_unexpected_suite_file_fails(self, gate, tmp_path, capsys):
        stray = tmp_path / "EVAL_bogus.json"
        stray.write_text("{}\n")
        assert gate.main(["--dir", str(tmp_path), "--suite", "bogus"]) == 1
        out = capsys.readouterr().out
        assert str(stray) in out and "not in repro.evals.SUITES" in out

    def test_missing_pin_fails(self, gate, tmp_path, capsys):
        assert gate.main(["--suite", CHEAP, "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "missing" in out and CHEAP in out

    def test_noncanonical_encoding_fails(self, gate, pin_dir, capsys):
        pin = self._pin(pin_dir)
        pin.write_text(json.dumps(json.loads(pin.read_text())))
        assert gate.main(["--suite", CHEAP, "--dir", str(pin_dir)]) == 1
        assert "canonical" in capsys.readouterr().out

    def test_unknown_suite_arg_rejected(self, gate, capsys):
        with pytest.raises(SystemExit) as exc:
            gate.main(["--suite", "nope"])
        assert exc.value.code == 2

    def test_update_roundtrips_to_passing(self, gate, tmp_path, capsys):
        assert gate.main(["--suite", CHEAP, "--dir", str(tmp_path),
                          "--update"]) == 0
        assert gate.main(["--suite", CHEAP, "--dir", str(tmp_path)]) == 0
        # The refreshed pin is byte-identical to the checked-in one.
        assert self._pin(tmp_path).read_text() == \
            (BENCHMARKS / expected_filename(CHEAP)).read_text()


# --------------------------------------------------------------------- #
# Expected-results IO
# --------------------------------------------------------------------- #

class TestExpectedIO:
    def test_roundtrip_canonical(self, tmp_path):
        payload = run_suite(CHEAP).expected_payload()
        path = tmp_path / "pin.json"
        write_expected(payload, str(path))
        text = path.read_text()
        assert text.endswith("\n") and text == dump_expected(payload)
        assert load_expected(str(path)) == payload

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_expected(str(bad))
        notdict = tmp_path / "arr.json"
        notdict.write_text("[1, 2]")
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_expected(str(notdict))
