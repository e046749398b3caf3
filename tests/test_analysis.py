"""Tests for the analysis layer: validation, metrics, fits, tables."""

import math

import pytest

from repro.analysis import (
    dispersion_violations,
    fit_power_law,
    format_big,
    is_dispersed,
    record_from_report,
    render_table,
    settlement_histogram,
    success_rate,
    summarize,
)
from repro.errors import ConfigurationError
from repro.sim.report import RunReport


def fake_report(success=True, sim=10, charged=5, settled=None, theorem=3):
    return RunReport(
        success=success,
        rounds_simulated=sim,
        rounds_charged=charged,
        settled=settled or {1: 0, 2: 1},
        violations=[] if success else ["boom"],
        meta={"theorem": theorem, "f": 1, "n": 8, "strategy": "squatter"},
    )


class TestValidation:
    def test_histogram(self):
        hist = settlement_histogram({1: 0, 2: 0, 3: 4, 4: None})
        assert hist == {0: [1, 2], 4: [3]}

    def test_clean_configuration(self):
        assert is_dispersed({1: 0, 2: 1, 3: 2})
        assert dispersion_violations({1: 0, 2: 1}) == []

    def test_collision_detected(self):
        v = dispersion_violations({1: 0, 2: 0})
        assert len(v) == 1 and "cap 1" in v[0]

    def test_cap_relaxation(self):
        assert is_dispersed({1: 0, 2: 0}, honest_cap=2)
        assert not is_dispersed({1: 0, 2: 0, 3: 0}, honest_cap=2)

    def test_unsettled_detected(self):
        assert not is_dispersed({1: None})
        assert is_dispersed({1: None}, honest_cap=1) is False

    def test_require_all_settled_off(self):
        assert dispersion_violations({1: None}, require_all_settled=False) == []

    def test_bad_cap(self):
        with pytest.raises(ConfigurationError):
            dispersion_violations({1: 0}, honest_cap=0)


class TestMetrics:
    def test_record_from_report(self):
        rec = record_from_report(fake_report(), graph="rc8")
        assert rec["success"] and rec["rounds_total"] == 15
        assert rec["theorem"] == 3 and rec["graph"] == "rc8"

    def test_config_keys_win_over_meta(self):
        rec = record_from_report(fake_report(), theorem=99)
        assert rec["theorem"] == 99

    def test_success_rate(self):
        recs = [{"success": True}, {"success": False}, {"success": True}]
        assert success_rate(recs) == pytest.approx(2 / 3)

    def test_success_rate_empty_is_nan(self):
        """No applicable rows is *not* a perfect sweep: the old 1.0
        return made summarize() report vacuous success."""
        assert math.isnan(success_rate([]))
        assert math.isnan(success_rate(iter([])))

    def test_success_rate_excludes_quarantines(self):
        """``failed=True`` records leave numerator and denominator
        alike: a quarantine is an infrastructure casualty, not a
        protocol outcome, and must not dilute the rate."""
        recs = [{"success": True}, {"success": False},
                {"failed": True, "reason": "error"}]
        assert success_rate(recs) == pytest.approx(1 / 2)

    def test_success_rate_only_quarantines_is_nan(self):
        assert math.isnan(success_rate([{"failed": True}] * 3))

    def test_summarize_rate_agrees_with_success_rate(self):
        """The per-group rate is success_rate() of that group — one
        semantics for both entry points, quarantines excluded."""
        recs = [
            {"strategy": "a", "success": True, "rounds_simulated": 4,
             "rounds_total": 4},
            {"strategy": "a", "failed": True, "reason": "error"},
        ]
        (row,) = summarize(recs, "strategy")
        assert row["success_rate"] == 1.0
        assert row["runs"] == 2 and row["failed"] == 1

    def test_summarize_empty_guard(self):
        assert summarize([], "strategy") == []

    def test_summarize_groups(self):
        recs = [
            record_from_report(fake_report(sim=10), strategy="a"),
            record_from_report(fake_report(sim=30), strategy="a"),
            record_from_report(fake_report(sim=5, success=False), strategy="b"),
        ]
        out = summarize(recs, "strategy")
        by_key = {r["strategy"]: r for r in out}
        assert by_key["a"]["runs"] == 2
        assert by_key["a"]["rounds_simulated_mean"] == 20
        assert by_key["b"]["success_rate"] == 0.0


class TestComplexityFit:
    def test_exact_power_law(self):
        xs = [4, 8, 16, 32]
        ys = [x**3 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.alpha == pytest.approx(3.0, abs=1e-9)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.predict(10) == pytest.approx(1000.0, rel=1e-6)

    def test_noisy_power_law(self):
        xs = [4, 8, 16, 32, 64]
        ys = [2.1 * x**2.0 * (1.1 if i % 2 else 0.95) for i, x in enumerate(xs)]
        fit = fit_power_law(xs, ys)
        assert 1.8 <= fit.alpha <= 2.2

    def test_rejects_bad_input(self):
        with pytest.raises(ConfigurationError):
            fit_power_law([1], [1])
        with pytest.raises(ConfigurationError):
            fit_power_law([1, 2], [0, 1])


class TestTables:
    def test_format_big_small_ints(self):
        assert format_big(1234) == "1,234"
        assert format_big(0) == "0"

    def test_format_big_huge_ints(self):
        s = format_big(2**80)
        assert "e" in s and len(s) < 12

    def test_format_big_negative(self):
        assert format_big(-(10**12)).startswith("-1.0")

    def test_format_floats_and_strings(self):
        assert format_big(0.123456) == "0.123"
        assert format_big("x") == "x"
        assert format_big(True) == "True"

    def test_render_table_alignment(self):
        out = render_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_render_table_infers_columns(self):
        out = render_table([{"a": 1}, {"b": 2}])
        assert "a" in out and "b" in out
