"""Golden reports: every solver's full ``RunReport``, byte for byte.

``tests/data/report_golden.json`` maps each case below to the report it
returns, including the fields records omit (``settled``, ``violations``,
``phases``, ``meta`` and ``activations``).  ``record_golden.json`` pins
records from the plan path only; this fixture pins the reports of every
entry point in :mod:`repro.core` and :mod:`repro.baselines`, the ones no
plan reaches (``solve_k_robots``, the three baselines and the Theorem 8
construction) included.

The matrix is every entry point × {``squatter``, ``ghost_squatter``} ×
seeds {0, 1}, plus rows 1 and 4 under non-default schedulers, row 4's
``round_robin`` schedule, random Byzantine placement on the rows whose
charge or start depends on it, and the DFS baseline with ``k = 2n``.

The comparison is on sorted-key JSON text after a JSON round trip (so
``settled``'s integer keys sort as the strings the fixture holds).
There is deliberately no update flag: a report change that is meant
rewrites the fixture by hand and says why.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.baselines import solve_dfs_baseline, solve_random_baseline, solve_ring_dispersion
from repro.byzantine import Adversary
from repro.core import (
    demonstrate_impossibility,
    solve_k_robots,
    solve_theorem1,
    solve_theorem2,
    solve_theorem3,
    solve_theorem4,
    solve_theorem5,
    solve_theorem6,
    solve_theorem7,
)
from repro.graphs import random_connected

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "report_golden.json"

STRATEGIES = ["squatter", "ghost_squatter"]
SEEDS = [0, 1]
SCHEDULERS = ["semi_synchronous(p=0.5)", "adversarial(window=4)"]


def _cases():
    """Case name -> zero-argument call returning a report.

    ``random_connected(8, seed=5)`` is quotient-isomorphic, so Theorem 1
    and ``solve_k_robots`` apply to it; each row runs at its ``f_max``.
    """
    g = random_connected(8, seed=5)
    entry_points = {
        "theorem1": lambda adv, seed, **kw: solve_theorem1(g, f=7, adversary=adv, seed=seed, **kw),
        "theorem2": lambda adv, seed, **kw: solve_theorem2(g, f=3, adversary=adv, seed=seed, **kw),
        "theorem3": lambda adv, seed, **kw: solve_theorem3(g, f=3, adversary=adv, seed=seed, **kw),
        "theorem4": lambda adv, seed, **kw: solve_theorem4(g, f=1, adversary=adv, seed=seed, **kw),
        "theorem5": lambda adv, seed, **kw: solve_theorem5(g, f=1, adversary=adv, seed=seed, **kw),
        "theorem6": lambda adv, seed, **kw: solve_theorem6(g, f=1, adversary=adv, seed=seed, **kw),
        "theorem7": lambda adv, seed, **kw: solve_theorem7(g, f=1, adversary=adv, seed=seed, **kw),
        "k_robots": lambda adv, seed, **kw: solve_k_robots(g, k=5, f=2, adversary=adv, seed=seed, **kw),
        "ring": lambda adv, seed, **kw: solve_ring_dispersion(8, f=4, adversary=adv, seed=seed, **kw),
        "random_baseline": lambda adv, seed, **kw: solve_random_baseline(g, f=1, adversary=adv, seed=seed, **kw),
        "dfs_baseline": lambda adv, seed, **kw: solve_dfs_baseline(g, f=1, adversary=adv, seed=seed, **kw),
    }
    cases = {}
    for name, call in entry_points.items():
        for strategy in STRATEGIES:
            for seed in SEEDS:
                cases[f"{name}/{strategy}/seed{seed}"] = (
                    lambda call=call, strategy=strategy, seed=seed:
                        call(Adversary(strategy, seed=seed), seed))
    for seed in SEEDS:
        cases[f"impossibility/seed{seed}"] = (
            lambda seed=seed: demonstrate_impossibility(g, k=12, f=4, seed=seed))
    for name in ("theorem1", "theorem3"):
        for scheduler in SCHEDULERS:
            cases[f"{name}/squatter/{scheduler}"] = (
                lambda call=entry_points[name], scheduler=scheduler:
                    call(Adversary("squatter", seed=1), 1, scheduler=scheduler))
    for seed in SEEDS:
        cases[f"theorem3/squatter/seed{seed}/round_robin"] = (
            lambda seed=seed: entry_points["theorem3"](
                Adversary("squatter", seed=seed), seed, schedule="round_robin"))
    for name in ("theorem1", "theorem2", "theorem5", "theorem7"):
        cases[f"{name}/ghost_squatter/seed1/random_placement"] = (
            lambda call=entry_points[name]:
                call(Adversary("ghost_squatter", seed=1), 1, byz_placement="random"))
    for seed in SEEDS:
        cases[f"dfs_baseline/squatter/seed{seed}/k_2n"] = (
            lambda seed=seed: solve_dfs_baseline(
                g, k=2 * g.n, f=2, adversary=Adversary("squatter", seed=seed), seed=seed))
    return cases


CASES = _cases()


def canonical(report) -> str:
    """Sorted-key JSON of every field of a report (or of the dataclass
    that holds reports), after a JSON round trip."""
    return json.dumps(json.loads(json.dumps(dataclasses.asdict(report))), sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_case(golden):
    assert list(golden) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_report(golden, name):
    assert canonical(CASES[name]()) == json.dumps(golden[name], sort_keys=True)
