"""Derived Figure B: success vs f at and beyond each row's bound.

For every Table 1 row: all f values up to the row's tolerance succeed
under the nastiest applicable strategy; values beyond the bound are
rejected by the driver (the theorems' pre-conditions).  The Theorem 1 row
additionally demonstrates *graceful degradation is not needed*: it
tolerates literally n−1.
"""

import pytest

from conftest import attach
from repro.analysis import success_rate
from repro.core import get_row
from repro.scenarios import tolerance_grid

WEAK_STRATEGY = "ghost_squatter"
STRONG_STRATEGY = "impersonator"


@pytest.mark.parametrize("serial", [1, 4, 5])
def bench_tolerance_weak_rows(benchmark, bench_graph, serial):
    row = get_row(serial)
    f_max = row.f_max(bench_graph)
    fs = sorted({0, 1, f_max // 2, f_max, f_max + 1, bench_graph.n - 1})

    def sweep():
        return tolerance_grid(serial, bench_graph, fs, WEAK_STRATEGY, seed=1).run()

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ran = [r for r in records if not r.get("rejected")]
    rejected = [r for r in records if r.get("rejected")]
    assert success_rate(ran) == 1.0
    assert all(r["f"] > f_max for r in rejected)
    benchmark.extra_info.update(
        serial=serial,
        f_max=f_max,
        accepted=str(sorted(r["f"] for r in ran)),
        rejected=str(sorted(r["f"] for r in rejected)),
    )


def bench_tolerance_strong_row(benchmark, bench_graph):
    row = get_row(7)
    f_max = row.f_max(bench_graph)
    fs = list(range(0, f_max + 2))

    def sweep():
        return tolerance_grid(7, bench_graph, fs, STRONG_STRATEGY, seed=2).run()

    records = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ran = [r for r in records if not r.get("rejected")]
    assert success_rate(ran) == 1.0
    assert any(r.get("rejected") for r in records)
    benchmark.extra_info.update(f_max=f_max)
