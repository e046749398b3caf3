"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


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


class TestCommands:
    def test_strategies_lists_zoo(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "squatter" in out and "impersonator" in out

    def test_run_row5(self, capsys):
        rc = main(["run", "--row", "5", "--n", "8", "--strategy", "squatter"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "success          : True" in out

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
        assert "Sweep (n=8" in cold
        assert "0 cell(s) answered from cache, 4 computed" in cold
        assert (store / "meta.json").exists()
        assert any(p.name.startswith("shard-") for p in store.iterdir())

        assert main(argv + ["--workers", "2", "--chunk", "2"]) == 0
        warm = capsys.readouterr().out
        assert "4 cell(s) answered from cache, 0 computed" in warm
        # identical table rows either way
        assert [l for l in cold.splitlines() if l.startswith(" ")] == \
            [l for l in warm.splitlines() if l.startswith(" ")]

    def test_sweep_without_store(self, capsys):
        assert main(["sweep", "--n", "8", "--strategies", "squatter",
                     "--serials", "5"]) == 0
        assert "answered from cache" not in capsys.readouterr().out

    def test_sweep_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--n", "8", "--strategies", "teleporter"])

    def test_sweep_with_no_applicable_cells_fails(self, capsys):
        """A sweep in which nothing ran must not exit 0 with an empty
        success-looking table (the vacuous-success bug class)."""
        rc = main(["sweep", "--n", "8", "--strategies", "squatter",
                   "--serials", "99"])
        assert rc == 1
        assert "nothing ran" in capsys.readouterr().out
