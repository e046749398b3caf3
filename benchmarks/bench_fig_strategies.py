"""Derived Figure C: adversary-strategy ablation across algorithms.

Runs the algorithms x strategies grid at full tolerance and reports, per
strategy, success rate (must be 1.0 — the theorems are worst-case) and
the round inflation relative to the all-honest run (which strategies are
*expensive*, even though none are *fatal*).
"""

import pytest

from conftest import attach
from repro.analysis import summarize
from repro.byzantine import WEAK_STRATEGIES
from repro.core import TABLE1, get_row
from repro.scenarios import grid


def bench_strategy_grid_weak(benchmark, bench_graph):
    def matrix():
        return grid(rows=[1, 4, 5], graphs=bench_graph, strategies=WEAK_STRATEGIES,
                    f="max", seeds=3).run()

    records = benchmark.pedantic(matrix, rounds=1, iterations=1)
    assert all(r["success"] for r in records), [
        (r["serial"], r["strategy"]) for r in records if not r["success"]
    ]
    by_strategy = summarize(records, "strategy")
    benchmark.extra_info.update(
        grid_size=len(records),
        by_strategy=str(
            {s["strategy"]: s["rounds_simulated_mean"] for s in by_strategy}
        ),
    )


def bench_strategy_round_inflation(benchmark, bench_graph):
    """Round inflation of the worst strategy vs the honest baseline, per
    algorithm — the 'cost of adversity' curve."""
    def measure():
        out = {}
        for serial in (1, 5, 7):
            row = get_row(serial)
            honest = row.solver(bench_graph, f=0, seed=4)
            worst = 0
            for strategy in ("squatter", "ghost_squatter", "flag_spammer"):
                rep = row.solver(
                    bench_graph, f=row.f_max(bench_graph),
                    adversary=__import__("repro").Adversary(strategy, seed=4), seed=4,
                )
                assert rep.success
                worst = max(worst, rep.rounds_simulated)
            out[serial] = (honest.rounds_simulated, worst)
        return out

    out = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info.update(
        inflation=str({s: round(w / max(h, 1), 2) for s, (h, w) in out.items()})
    )
