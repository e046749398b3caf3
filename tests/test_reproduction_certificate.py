"""The reproduction certificate: the complete Table 1 claim, exhaustively.

Every Table 1 row × every applicable adversary strategy × Byzantine
placement (lowest/highest IDs), each at the row's **exact** tolerance
bound, on a shared view-distinguishable graph.  One passing run of this
module is the codebase's end-to-end witness that the paper's results
table holds in simulation.

The shape certificate below checks the table's growth column: power-law
slopes (``fit_power_law`` over ``scaling_grid`` records) on cliques and
on a random view-distinguishable family stay within the cited O(nᵏ), the
O(n⁴)/O(n³) gap between rows 4 and 5 widens with n, and the general
algorithm pays a premium over the O(n) ring algorithm of prior work.
"""

import pytest

from repro.analysis import fit_power_law
from repro.baselines import solve_ring_dispersion
from repro.byzantine import STRONG_STRATEGIES, WEAK_STRATEGIES, Adversary
from repro.core import TABLE1, get_row, row_applicable
from repro.graphs import clique, is_quotient_isomorphic, random_connected, ring
from repro.scenarios import scaling_grid

#: Cited exponent k of each gathered-start row's O(nᵏ) bound.
EXPONENT = {4: 4, 5: 3, 7: 3}


def view_distinct_graph(n):
    """The first view-distinguishable ``random_connected(n, seed)``."""
    for seed in range(50):
        g = random_connected(n, seed=seed)
        if is_quotient_isomorphic(g):
            return g
    raise RuntimeError("no view-distinguishable graph found")


@pytest.fixture(scope="module")
def certificate_graph():
    return view_distinct_graph(8)


@pytest.fixture(scope="module")
def random_family():
    return [view_distinct_graph(n) for n in (6, 8, 10, 12)]


def _cases():
    for row in TABLE1:
        strategies = STRONG_STRATEGIES if row.strong else WEAK_STRATEGIES
        for strategy in strategies:
            for placement in ("lowest", "highest"):
                yield pytest.param(
                    row.serial, strategy, placement,
                    id=f"row{row.serial}-{strategy}-{placement}",
                )


@pytest.mark.parametrize("serial,strategy,placement", list(_cases()))
def test_table1_certificate(certificate_graph, serial, strategy, placement):
    row = get_row(serial)
    assert row_applicable(row, certificate_graph)
    f = row.f_max(certificate_graph)
    report = row.solver(
        certificate_graph,
        f=f,
        adversary=Adversary(strategy, seed=1),
        seed=1,
        byz_placement=placement,
    )
    assert report.success, (
        f"Table 1 row {serial} (Theorem {row.theorem}) failed at its bound "
        f"f={f} vs {strategy}/{placement}: {report.violations}"
    )
    # The run must also respect the row's total-cost shape: charged rounds
    # exactly equal the cited formulas for the oracle rows.  Row 2's
    # formula depends on which IDs are honest (|Λgood|); the registry uses
    # the lowest-IDs-corrupted convention, so only compare under it.
    if serial in (3, 6) or (serial == 2 and placement == "lowest"):
        assert report.rounds_charged == row.paper_bound(certificate_graph, f)


def _slope(records, metric):
    assert all(r["success"] for r in records)
    return fit_power_law([r["n"] for r in records], [r[metric] for r in records]).alpha


@pytest.mark.parametrize("serial", sorted(EXPONENT))
def test_clique_slope_within_bound(serial):
    records = scaling_grid(serial, [clique(n) for n in range(5, 11)], "idle").run()
    assert _slope(records, "rounds_simulated") <= EXPONENT[serial] + 0.25


@pytest.mark.parametrize("serial", [1, 4, 5, 7])
def test_random_family_slope(random_family, serial):
    records = scaling_grid(serial, random_family, "squatter", seed=1).run()
    alpha = _slope(records, "rounds_total")
    assert alpha > 0.5
    if serial in EXPONENT:
        assert alpha <= EXPONENT[serial] + 0.25


def test_row4_row5_gap_widens(random_family):
    """O(n⁴) vs O(n³): row 4 costs more at every n, by a growing factor."""
    r4 = scaling_grid(4, random_family, "idle", seed=2).run()
    r5 = scaling_grid(5, random_family, "idle", seed=2).run()
    assert all(r["success"] for r in r4 + r5)
    ratios = [a["rounds_simulated"] / b["rounds_simulated"] for a, b in zip(r4, r5)]
    assert all(ratio > 1 for ratio in ratios)
    assert ratios[-1] > ratios[0]


def test_general_algorithm_premium_over_ring_prior_work():
    """On a ring, row 4 pays >10x the O(n) ring algorithm: maps cost rounds."""
    prior = solve_ring_dispersion(9, f=2, adversary=Adversary("squatter"))
    general = get_row(4).solver(ring(9), f=2, adversary=Adversary("squatter"), seed=1)
    assert prior.success and general.success
    assert general.rounds_simulated > 10 * prior.rounds_simulated
