"""Tests for the command-line interface."""

import pytest

from repro.analysis import experiments
from repro.analysis.store import RunStore
from repro.cli import _sample_graph, build_parser, main
from repro.scenarios import table1_grid


def column(out, name):
    """The cells of column ``name`` in the first table printed to ``out``
    (its header is the first line holding a `` | ``)."""
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if " | " in line)
    index = [c.strip() for c in lines[at].split(" | ")].index(name)
    rows = []
    for line in lines[at + 2:]:
        if " | " not in line:
            break
        rows.append(line.split(" | ")[index].strip())
    return rows


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_row_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--row", "8"])

    def test_strategy_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--row", "1", "--strategy", "teleporter"])

    def test_no_chunk_flag(self, capsys):
        # Each cell is one pool task, so there is no dispatch size to set.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["table1", "--chunk", "2"])
        assert exc.value.code == 2
        assert "--chunk" in capsys.readouterr().err


class TestCommands:
    def test_strategies_lists_zoo(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "squatter" in out and "impersonator" in out

    def test_run_row5(self, capsys):
        rc = main(["run", "--row", "5", "--n", "8", "--strategy", "squatter"])
        out = capsys.readouterr().out
        assert rc == 0
        assert column(out, "success") == ["True"]

    def test_run_explicit_f(self, capsys):
        rc = main(["run", "--row", "7", "--n", "8", "--f", "1", "--strategy", "id_cycler"])
        assert rc == 0

    def test_impossible_applies(self, capsys):
        rc = main(["impossible", "--n", "6", "--k", "12", "--f", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "violation shown   : True" in out

    def test_impossible_not_applies(self, capsys):
        rc = main(["impossible", "--n", "6", "--k", "12", "--f", "2"])
        out = capsys.readouterr().out
        assert "Theorem 8 applies : False" in out

    def test_tolerance_sweep(self, capsys):
        rc = main(["tolerance", "--row", "5", "--n", "8", "--strategy", "idle"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Tolerance sweep" in out

    def test_tolerance_fails_when_an_in_bound_cell_fails(self, capsys, monkeypatch):
        """A run at f <= f_max that does not disperse is the failure
        `repro tolerance` exists to catch: the command exits 1."""
        from repro.core import runner

        real = runner.solve_theorem4

        def starved_at_f1(graph, f, **kw):
            if f == 1:
                kw["max_rounds"] = 0  # nobody settles in zero rounds
            return real(graph, f=f, **kw)

        monkeypatch.setattr(runner, "solve_theorem4", starved_at_f1)
        rc = main(["tolerance", "--row", "5", "--n", "8", "--strategy", "idle"])
        assert "(bound f<=1)" in capsys.readouterr().out
        assert rc == 1

    def test_table1_small(self, capsys):
        rc = main(["table1", "--n", "8", "--strategy", "squatter"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1 reproduction" in out
        # All seven rows present (row 1 applicable on the sampled graph).
        assert out.count("\n") >= 9

    def test_table1_parallel_workers(self, capsys):
        rc = main(["table1", "--n", "8", "--strategy", "squatter", "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1 reproduction" in out


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["run", "--row", "4", "--n", "9", "--f", "8"],
             "run rejected: ConfigurationError: Theorem 3 tolerates 0 <= f <= 3"),
            (["run", "--row", "4", "--n", "9", "--f", "8", "--detail"],
             "run rejected: ConfigurationError: Theorem 3 tolerates 0 <= f <= 3"),
            (["table1", "--n", "8", "--timeout", "0"],
             "table1 rejected: ConfigurationError: timeout must be positive"),
            (["tolerance", "--row", "5", "--n", "8", "--retries", "-1"],
             "tolerance rejected: ConfigurationError: max_retries must be"),
            (["sweep", "--n", "8", "--serials", "4,x"],
             "bad --serials value '4,x'"),
            (["run", "--row", "4", "--n", "6", "--seed", "-1"],
             "run rejected: ConfigurationError: graph seed must be None or a "
             "non-negative int, got -1"),
        ],
    )
    def test_exits_with_one_line_not_a_traceback(self, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert needle in str(exc.value)


class TestSweep:
    def test_sweep_end_to_end_in_tmpdir(self, capsys, tmp_path):
        """`repro sweep` cold then warm: second run answers every cell
        from the store and recomputes nothing."""
        store = tmp_path / "runs"
        argv = [
            "sweep", "--n", "8", "--strategies", "squatter,idle",
            "--serials", "4,5", "--store", str(store),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "Table 1 reproduction (n=8" in cold
        assert "0 cell(s) answered from cache, 4 computed" in cold
        assert (store / "meta.json").exists()
        assert any(p.name.startswith("shard-") for p in store.iterdir())

        assert main(argv + ["--workers", "2"]) == 0
        warm = capsys.readouterr().out
        assert "4 cell(s) answered from cache, 0 computed" in warm
        # identical table rows either way
        assert [l for l in cold.splitlines() if l.startswith(" ")] == \
            [l for l in warm.splitlines() if l.startswith(" ")]

    def test_store_line_counts_dropped_entries(self, tmp_path, capsys):
        """A stored line damaged after its head is dropped at its first
        read, and the store line says so."""
        store = tmp_path / "runs"
        argv = ["sweep", "--n", "8", "--strategies", "squatter",
                "--serials", "5", "--store", str(store)]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith("1 computed, 1 total entries\n")
        (shard,) = store.glob("shard-*.jsonl")
        line = shard.read_bytes()
        shard.write_bytes(line[:-10] + b"#" * 9 + b"\n")
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(
            "0 cell(s) answered from cache, 1 computed, 1 total entries, "
            "1 damaged entry dropped\n")

    def test_sweep_without_store(self, capsys):
        assert main(["sweep", "--n", "8", "--strategies", "squatter",
                     "--serials", "5"]) == 0
        assert "answered from cache" not in capsys.readouterr().out

    def test_sweep_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "8", "--strategies", "teleporter"])
        assert str(exc.value).startswith(
            "sweep rejected: ValidationError: strategy: unknown strategy 'teleporter'")

    def test_sweep_with_no_applicable_cells_fails(self, capsys):
        """A sweep in which nothing ran must not exit 0 with an empty
        success-looking table (the vacuous-success bug class)."""
        rc = main(["sweep", "--n", "8", "--strategies", "squatter",
                   "--serials", "99"])
        assert rc == 1
        assert "nothing ran" in capsys.readouterr().out


class TestOneTable1Command:
    """`table1` and its alias `sweep` are one command with one flag set."""

    def test_alias_and_spellings_print_identical_output(self, capsys):
        assert main(["table1", "--n", "8", "--strategy", "squatter"]) == 0
        table1 = capsys.readouterr().out
        assert main(["sweep", "--n", "8", "--strategies", "squatter"]) == 0
        assert capsys.readouterr().out == table1

    def test_store_holds_exactly_table1_grid_keys(self, tmp_path, capsys):
        """perfbench's `table1` workload runs `table1_grid(g, [s], seed)`
        on the premise that `repro table1 --strategy s` runs that plan:
        the same cells and store keys, however the flags are spelled."""
        expected = table1_grid(_sample_graph(8, True, 0), ["squatter"], seed=0).keys()
        spellings = [
            ["table1", "--strategy", "squatter"],
            ["table1", "--strategies", "squatter", "--scheduler", "synchronous"],
            ["sweep", "--strategies", "squatter"],
        ]
        for i, argv in enumerate(spellings):
            store = tmp_path / str(i)
            assert main([*argv, "--n", "8", "--store", str(store)]) == 0
            assert f"0 cell(s) answered from cache, {len(expected)} computed" \
                in capsys.readouterr().out
            assert sorted(RunStore(str(store)).keys()) == sorted(expected)

    def test_table1_with_no_applicable_cells_fails(self, capsys):
        rc = main(["table1", "--n", "8", "--serials", "99"])
        assert rc == 1
        assert "nothing ran" in capsys.readouterr().out

    def test_quarantined_run_prints_the_shared_table(self, monkeypatch, capsys):
        def always_failing(cell):
            raise RuntimeError("injected CLI fault")

        monkeypatch.setattr(experiments, "_cell_records", always_failing)
        rc = main(["run", "--row", "5", "--n", "8", "--strategy", "idle",
                   "--retries", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "Quarantined cells (1)" in out
        assert "injected CLI fault" in out
        assert column(out, "success") == ["False"]
