"""Integration tests: the Table 1 registry end to end."""

import pytest

from repro.core import TABLE1, get_row, row_applicable
from repro.graphs import random_connected, ring
from repro.scenarios import grid, scaling_grid, table1_grid, tolerance_grid


class TestRegistryShape:
    def test_seven_rows(self):
        assert [r.serial for r in TABLE1] == [1, 2, 3, 4, 5, 6, 7]

    def test_theorem_mapping_matches_paper(self):
        # Table 1's serial -> theorem mapping (paper page 5).
        assert {r.serial: r.theorem for r in TABLE1} == {
            1: 1, 2: 2, 3: 5, 4: 3, 5: 4, 6: 7, 7: 6,
        }

    def test_strong_flags(self):
        assert {r.serial for r in TABLE1 if r.strong} == {6, 7}

    def test_starts(self):
        arbitrary = {r.serial for r in TABLE1 if r.start == "Arbitrary"}
        assert arbitrary == {1, 2, 3, 6}

    def test_get_row(self):
        assert get_row(4).theorem == 3
        with pytest.raises(KeyError):
            get_row(8)

    def test_tolerances_at_n8(self, rc8):
        f_max = {r.serial: r.f_max(rc8) for r in TABLE1}
        assert f_max == {1: 7, 2: 3, 3: 1, 4: 3, 5: 1, 6: 1, 7: 1}

    def test_paper_bounds_ordering(self, rc8):
        """Row 2's bound dominates row 3's; gathered rows are polynomial."""
        b = {r.serial: r.paper_bound(rc8, r.f_max(rc8)) for r in TABLE1}
        assert b[2] > b[3] > b[5]
        assert b[4] == 8**4 and b[5] == 8**3 == b[7]

    def test_row1_applicability(self, rc8):
        assert row_applicable(get_row(1), rc8)
        assert not row_applicable(get_row(1), ring(8))
        assert row_applicable(get_row(4), ring(8))


class TestRunTable1:
    def test_full_table_succeeds(self, rc8):
        recs = table1_grid(rc8, ["squatter"], seed=1).run()
        assert len(recs) == 7
        assert all(r["success"] for r in recs)

    def test_row1_skipped_on_symmetric_graph(self):
        recs = table1_grid(ring(8), ["idle"], seed=1, serials=[1, 5]).run()
        assert {r["serial"] for r in recs} == {5}

    def test_single_row_multiple_strategies(self, rc8):
        recs = grid(rows=5, graphs=rc8, strategies=["squatter", "idle", "crash"],
                    seeds=2).run()
        assert len(recs) == 3
        assert all(r["success"] for r in recs)
        assert {r["strategy"] for r in recs} == {"squatter", "idle", "crash"}

    def test_explicit_f(self, rc8):
        recs = grid(rows=4, graphs=rc8, strategies="idle", f=1).run()
        assert recs[0]["f"] == 1


class TestSweeps:
    def test_tolerance_sweep_accepts_and_rejects(self, rc8):
        # Row 5 (Thm 4): f_max = 1 at n=8.
        recs = tolerance_grid(5, rc8, [0, 1, 2, 5], "squatter", seed=1).run()
        by_f = {r["f"]: r for r in recs}
        assert by_f[0]["success"] and by_f[1]["success"]
        assert by_f[2]["rejected"] and by_f[5]["rejected"]

    def test_scaling_sweep_monotone_bounds(self):
        graphs = [random_connected(n, seed=n) for n in (6, 9, 12)]
        recs = scaling_grid(5, graphs, "idle", seed=0).run()
        assert [r["n"] for r in recs] == [6, 9, 12]
        bounds = [r["paper_bound"] for r in recs]
        assert bounds == sorted(bounds)
        assert all(r["success"] for r in recs)
