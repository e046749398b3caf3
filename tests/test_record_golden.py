"""Golden records: every record kind, byte for byte, on every execution path.

``tests/data/record_golden.json`` maps each plan below to the records it
produces.  The comparison is on ``json.dumps`` text *without*
``sort_keys``, so record key order is pinned along with every value.
The plans cover each record shape the executor can emit:

* ``table1`` records under three strategies (incl. the RNG-drawing
  ``ghost_squatter``) on a generator graph and on a spec-less copy of it
  (which a process pool ships pickled instead of as a spec);
* ``tolerance`` records through and past the bound (``rejected``
  records), also under non-synchronous schedulers;
* ``table1`` records under non-synchronous schedulers;
* ``scaling`` records;
* row-1 ``table1`` and ``tolerance`` plans that form batch groups,
  including ``f == n``, which the batch engine hands back to the
  per-cell path;
* a round budget and random Byzantine placement.

Each plan is checked run serially, with ``workers=2``, and as a cold
run into a store followed by a warm replay from a fresh handle.  There
is deliberately no update flag: a record change that is meant rewrites
the fixture by hand and says why.
"""

import json
import pathlib

import pytest

from repro.analysis import RunStore
from repro.graphs import PortLabeledGraph, random_connected
from repro.scenarios import grid, scaling_grid, table1_grid, tolerance_grid

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "record_golden.json"

SCHEDULERS = ["semi_synchronous(p=0.5)", "adversarial(window=4)"]


def _plans():
    """Plan name -> grid.  ``random_connected(8, seed=5)`` is
    quotient-isomorphic, so row 1 applies and its plans batch."""
    g = random_connected(8, seed=5)
    copy = PortLabeledGraph(g.port_table())
    return {
        "table1_three_strategies": table1_grid(
            g, ["squatter", "idle", "ghost_squatter"]),
        "table1_spec_less_graph": table1_grid(copy, ["crash"], serials=[1, 4, 5]),
        "tolerance_row5_past_bound": tolerance_grid(5, g, range(4), "squatter"),
        "tolerance_row4_past_bound": tolerance_grid(4, g, range(6), "idle", seed=3),
        "table1_schedulers": grid(
            rows=[4, 5], graphs=g, strategies="squatter", schedulers=SCHEDULERS),
        "tolerance_schedulers": grid(
            rows=5, graphs=g, strategies="squatter", f=[0, 1, g.n],
            schedulers=SCHEDULERS, kind="tolerance", applicable_only=False),
        "scaling": scaling_grid(
            5, [random_connected(n, seed=1) for n in (6, 8)], "idle")
        + scaling_grid(4, [random_connected(7, seed=2), copy], "squatter", seed=1),
        "batched_row1_table1": grid(
            rows=1, graphs=g, strategies=["squatter", "crash"], seeds=range(4)),
        "batched_row1_tolerance": tolerance_grid(1, g, range(g.n + 1), "idle"),
        "round_budget": grid(
            rows=[1, 5], graphs=g, strategies="idle", seeds=[0, 1], rounds=5),
        "random_placement": grid(
            rows=[1, 4], graphs=g, strategies="crash", f=2, placement="random",
            seeds=[0, 1]),
    }


NAMES = [
    "table1_three_strategies", "table1_spec_less_graph",
    "tolerance_row5_past_bound", "tolerance_row4_past_bound",
    "table1_schedulers", "tolerance_schedulers", "scaling",
    "batched_row1_table1", "batched_row1_tolerance",
    "round_budget", "random_placement",
]


@pytest.fixture(scope="module")
def plans():
    return _plans()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_every_plan(plans, golden):
    assert list(plans) == NAMES
    assert list(golden) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_serial(plans, golden, name):
    assert json.dumps(plans[name].run()) == json.dumps(golden[name])


@pytest.mark.parametrize("name", NAMES)
def test_two_workers(plans, golden, name):
    assert json.dumps(plans[name].run(workers=2)) == json.dumps(golden[name])


@pytest.mark.parametrize("name", NAMES)
def test_warm_store_replay(plans, golden, name, tmp_path):
    cold = plans[name].run(store=RunStore(tmp_path / "store"))
    replay_store = RunStore(tmp_path / "store")
    warm = plans[name].run(store=replay_store)
    assert replay_store.hits == len(plans[name]) and replay_store.puts == 0
    assert json.dumps(cold) == json.dumps(golden[name])
    assert json.dumps(warm) == json.dumps(golden[name])
