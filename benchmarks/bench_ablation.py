"""Ablations of the paper's design choices (what each phase simulates or
charges: EXPERIMENTS.md, "What is simulated and what is charged").

1. **Pairing schedule** (Section 3.1): the paper's recursive halving vs
   the classic circle-method round robin.  Same protocol, same
   correctness, ~(2n+log n) vs (n−1) slots: the O(n⁴) bound is
   schedule-limited, not protocol-limited.
2. **Map source** (the paper's future-work question "is finding a map
   necessary in order for robots to settle?"): Dispersion-Using-Map with
   a *free* map (ring prior work / Theorem 1's Find-Map) versus a map
   *earned* through the tournament — quantifying what the mapping phase
   costs relative to the dispersion phase it enables.
"""

import pytest

from conftest import attach
from repro.baselines import solve_ring_dispersion
from repro.byzantine import Adversary
from repro.core import get_row, solve_theorem3
from repro.graphs import ring


def bench_ablation_schedule(benchmark, bench_graph):
    f = bench_graph.n // 2 - 1

    def run():
        return solve_theorem3(
            bench_graph, f=f, adversary=Adversary("squatter"), seed=1,
            schedule="round_robin",
        )

    rr = benchmark.pedantic(run, rounds=2, iterations=1)
    paper = solve_theorem3(
        bench_graph, f=f, adversary=Adversary("squatter"), seed=1, schedule="paper"
    )
    assert rr.success and paper.success
    assert rr.rounds_simulated <= paper.rounds_simulated
    benchmark.extra_info.update(
        paper_rounds=paper.rounds_simulated,
        round_robin_rounds=rr.rounds_simulated,
        saving=round(1 - rr.rounds_simulated / paper.rounds_simulated, 3),
    )


def bench_ablation_map_source(benchmark):
    """Free map vs earned map on the same ring instance: the entire
    polynomial cost of the general algorithms is the mapping phase; the
    dispersion phase itself is O(n) either way (the paper's Section 1.3
    'map knowledge is the game' claim, quantified)."""
    n = 12
    f = 2

    def run():
        return solve_ring_dispersion(n, f=f, adversary=Adversary("squatter"))

    free = benchmark.pedantic(run, rounds=3, iterations=1)
    earned = solve_theorem3(ring(n), f=f, adversary=Adversary("squatter"), seed=2)
    assert free.success and earned.success
    assert free.rounds_simulated <= 2 * n + 2
    benchmark.extra_info.update(
        free_map_rounds=free.rounds_simulated,
        earned_map_rounds=earned.rounds_simulated,
        mapping_premium=earned.rounds_simulated // max(free.rounds_simulated, 1),
    )


def bench_ablation_k_robots(benchmark, bench_graph):
    """k < n: fewer robots disperse in the same O(n) dispersion rounds
    (the procedure's cost is tour-bound, not population-bound)."""
    from repro.core import solve_k_robots

    def run():
        return solve_k_robots(bench_graph, k=bench_graph.n // 2, f=1,
                              adversary=Adversary("squatter"), seed=3)

    half = benchmark.pedantic(run, rounds=3, iterations=1)
    full = solve_k_robots(bench_graph, k=bench_graph.n, f=1,
                          adversary=Adversary("squatter"), seed=3)
    assert half.success and full.success
    benchmark.extra_info.update(
        half_population_rounds=half.rounds_simulated,
        full_population_rounds=full.rounds_simulated,
    )
