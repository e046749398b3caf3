"""Batched engine: grouping safety and byte-identity with the serial path.

The contracts under test:

* ``plan_groups`` never mixes incompatible cells — a property test over
  randomly assembled plans asserts every group agrees on graph
  fingerprint, solver serial, strategy, scheduler, and round budget,
  and that singletons, ineligible cells (``ghost_squatter``,
  non-synchronous schedulers, other solver rows, scaling cells), and
  fault-targeted cells always stay on the per-cell path;
* batch-produced records are **byte-identical** to the per-cell path
  (each cell run as its own one-cell plan, which never batches) — same
  record JSON, same store cell keys, same stored bytes — across
  strategies, placements, ``f`` values (including out-of-range
  rejections), round budgets, both batchable kinds, and under an
  injected :class:`FaultPlan`;
* a store warmed by a batched run answers a later serial run entirely
  from cache (poison faults on every key prove zero recomputes);
* the batch engine genuinely runs (a spy on ``run_batch_group`` catches
  a regression where everything falls back), and graphs outside the
  Theorem 1 class are *returned* to the serial path, not simulated;
* an engine error on a group is never silent: ``execute_plan`` warns,
  naming the group, and recomputes it per cell with identical records.

``tests/conftest.py`` turns the fallback warning into an error for the
whole suite, so an engine bug fails its test instead of hiding behind
the per-cell fallback.
"""

import json
import random

import pytest

from repro.analysis import batching
from repro.analysis.batching import batchable, plan_groups, run_batch_group
from repro.analysis.experiments import (
    SweepCell,
    _payload_fingerprint,
    cell_key_of,
    execute_plan,
)
from repro.analysis.faults import FaultPlan, FaultSpec
from repro.analysis.store import RunStore
from repro.graphs import random_connected, ring

#: ``random_connected(12, seed=0)`` is connected and quotient-isomorphic
#: (n=12, m=18) — a Theorem 1 graph without any seed scanning.
QI_SEED = 0


@pytest.fixture(scope="module")
def g():
    return random_connected(12, seed=QI_SEED)


@pytest.fixture(scope="module")
def g2():
    return random_connected(12, seed=3)  # same n, different fingerprint


def _plan(cells, faults=None):
    keys = [cell_key_of(c) for c in cells]
    return plan_groups(
        cells,
        list(range(len(cells))),
        keys,
        lambda i: _payload_fingerprint(cells[i].payload),
        faults=faults,
    )


def _per_cell(cells, store=None, faults=None):
    """The per-cell reference: each cell as its own one-cell plan (a
    plan batches only when it has more than one pending cell)."""
    return [execute_plan([cell], store=store, faults=faults)[0] for cell in cells]


def _run_both(cells, tmp_path, faults_a=None, faults_b=None):
    """Run ``cells`` as one (batching) plan and cell by cell into fresh
    stores; assert byte-identical records, key sets, and stored bytes."""
    sa = RunStore(str(tmp_path / "a"))
    sb = RunStore(str(tmp_path / "b"))
    ra = execute_plan(cells, store=sa, faults=faults_a)
    rb = _per_cell(cells, store=sb, faults=faults_b)
    assert json.dumps(ra) == json.dumps(rb)
    keys_a, keys_b = sorted(sa.keys()), sorted(sb.keys())
    assert keys_a == keys_b
    assert keys_a == sorted(cell_key_of(c) for c in cells)
    for key in keys_a:
        assert json.dumps(sa.get(key)) == json.dumps(sb.get(key))
    return ra


class TestGrouping:
    def test_compatible_seed_sweep_groups(self, g):
        cells = [
            SweepCell("table1", 1, g, "squatter", seed, f=4) for seed in range(5)
        ]
        groups, rest = _plan(cells)
        assert groups == [[0, 1, 2, 3, 4]]
        assert rest == []

    def test_f_and_placement_vary_within_group(self, g):
        cells = [
            SweepCell("tolerance", 1, g, "idle", 0, f=f, placement=p)
            for f in (0, 3, 7)
            for p in ("lowest", "highest", "random")
        ]
        groups, rest = _plan(cells)
        assert groups == [list(range(9))]
        assert rest == []

    def test_singletons_stay_serial(self, g):
        cells = [
            SweepCell("table1", 1, g, "squatter", 0, f=4),
            SweepCell("table1", 1, g, "idle", 0, f=4),
        ]
        groups, rest = _plan(cells)
        assert groups == []
        assert rest == [0, 1]

    def test_ineligible_cells_never_batch(self, g):
        ineligible = [
            SweepCell("table1", 1, g, "ghost_squatter", 0, f=4),
            SweepCell("table1", 1, g, "squatter", 0, f=4,
                      scheduler="semi_synchronous(p=0.5)"),
            SweepCell("table1", 2, g, "squatter", 0, f=4),
            SweepCell("scaling", 1, g, "squatter", 0, f=4),
        ]
        for cell in ineligible:
            assert not batchable(cell)
        # Even duplicated (so compatibility alone would group them),
        # ineligible cells all land in rest, in plan order.
        cells = [c for cell in ineligible for c in (cell, cell)]
        groups, rest = _plan(cells)
        assert groups == []
        assert rest == list(range(len(cells)))

    def test_fault_targeted_cells_excluded(self, g):
        cells = [
            SweepCell("table1", 1, g, "squatter", seed, f=4) for seed in range(4)
        ]
        faults = FaultPlan({cell_key_of(cells[2]): FaultSpec("error")})
        groups, rest = _plan(cells, faults=faults)
        assert groups == [[0, 1, 3]]
        assert rest == [2]

    def test_property_random_plans_never_mix_axes(self, g, g2):
        """Property test: however a plan is assembled, every planned
        group is ≥2 cells that agree on every grouping axis, and the
        remainder preserves plan order exactly."""
        rng = random.Random(1234)
        kinds = ["table1", "tolerance", "scaling"]
        serials = [1, 1, 1, 2]
        strategies = ["crash", "idle", "squatter", "flag_spammer",
                      "ghost_squatter"]
        schedulers = ["synchronous", "synchronous", "semi_synchronous(p=0.5)"]
        rounds = [None, None, 8, 0]
        placements = ["lowest", "highest", "random"]
        graphs = [g, g2]
        for _ in range(20):
            cells = [
                SweepCell(
                    rng.choice(kinds), rng.choice(serials), rng.choice(graphs),
                    rng.choice(strategies), rng.randrange(4),
                    f=rng.choice([None, 0, 4, 11]),
                    placement=rng.choice(placements),
                    rounds=rng.choice(rounds),
                    scheduler=rng.choice(schedulers),
                )
                for _ in range(15)
            ]
            groups, rest = _plan(cells)
            grouped = [i for group in groups for i in group]
            # Partition: every index exactly once, rest in plan order.
            assert sorted(grouped + rest) == list(range(len(cells)))
            assert rest == [i for i in range(len(cells)) if i not in grouped]
            for group in groups:
                assert len(group) >= 2
                keys = {
                    batching._group_key(
                        cells[i], _payload_fingerprint(cells[i].payload)
                    )
                    for i in group
                }
                assert len(keys) == 1, "group mixes incompatible cells"
                assert all(batchable(cells[i]) for i in group)


class TestByteIdentity:
    def test_strategies_and_placements(self, g, tmp_path):
        cells = [
            SweepCell("table1", 1, g, strategy, seed, f=5, placement=placement)
            for strategy in ("crash", "idle", "squatter", "flag_spammer")
            for placement in ("lowest", "highest", "random")
            for seed in (0, 1)
        ]
        _run_both(cells, tmp_path)

    def test_tolerance_full_f_range_and_rejection(self, g, tmp_path):
        # f == n is out of range: the serial path answers with a
        # rejected record, and the batch path must hand the cell back
        # rather than invent its own rejection.
        cells = [
            SweepCell("tolerance", 1, g, "squatter", seed, f=f)
            for f in range(g.n + 1)
            for seed in (0, 1)
        ]
        records = _run_both(cells, tmp_path)
        rejected = [r for recs in records for r in recs if r.get("rejected")]
        assert len(rejected) == 2  # the two f == n cells

    def test_round_budgets(self, g, tmp_path):
        cells = [
            SweepCell("table1", 1, g, "idle", seed, f=3, rounds=rounds)
            for rounds in (None, 0, 5, 40)
            for seed in (0, 1)
        ]
        records = _run_both(cells, tmp_path)
        by_rounds = {}
        for cell, recs in zip(cells, records):
            by_rounds.setdefault(cell.rounds, []).extend(recs)
        # rounds=0 exhausts the budget immediately: both paths must
        # agree the run fails (nobody settled in zero rounds).
        assert all(not r["success"] for r in by_rounds[0])
        assert all(r["success"] for r in by_rounds[None])

    def test_nonsync_scheduler_falls_back_identically(self, g, tmp_path):
        cells = [
            SweepCell("table1", 1, g, "squatter", seed, f=4,
                      scheduler=scheduler)
            for scheduler in ("synchronous", "semi_synchronous(p=0.5)")
            for seed in (0, 1)
        ]
        records = _run_both(cells, tmp_path)
        semi = [
            r
            for cell, recs in zip(cells, records)
            for r in recs
            if cell.scheduler != "synchronous"
        ]
        assert all("scheduler" in r for r in semi)

    def test_injected_faultplan(self, g, tmp_path):
        """A fault-targeted cell rides the per-cell retry machinery and
        still lands byte-identical next to its batched siblings."""
        cells = [
            SweepCell("table1", 1, g, "squatter", seed, f=4)
            for seed in range(6)
        ]
        spec = FaultSpec("error", attempts=1)
        target = cell_key_of(cells[2])
        # Fresh plans per run: attempt counters are plan state.
        _run_both(
            cells, tmp_path,
            faults_a=FaultPlan({target: spec}),
            faults_b=FaultPlan({target: spec}),
        )

    def test_batch_engine_actually_runs(self, g, monkeypatch):
        """Guard against a regression where every group silently falls
        back: the grouped cells must be simulated by the engine."""
        ran = []
        original = batching.run_batch_group

        def spy(cells, indices, finish):
            leftover = original(cells, indices, finish)
            ran.append((list(indices), list(leftover)))
            return leftover

        monkeypatch.setattr(batching, "run_batch_group", spy)
        cells = [
            SweepCell("table1", 1, g, "squatter", seed, f=4) for seed in range(4)
        ]
        execute_plan(cells)
        assert ran == [([0, 1, 2, 3], [])]

    def test_non_theorem1_graph_returned_to_serial(self, g):
        """``ring(6)`` is connected but not quotient-isomorphic: the
        engine must hand the whole group back untouched."""
        cells = [
            SweepCell("table1", 1, ring(6), "squatter", seed, f=2)
            for seed in (0, 1)
        ]

        def finish(i, recs):  # pragma: no cover - must not be called
            raise AssertionError("engine simulated an out-of-class graph")

        assert run_batch_group(cells, [0, 1], finish) == [0, 1]

    def test_batch_warmed_store_answers_serial_run(self, g, tmp_path):
        """Cache-key pinning end to end: a serial run over a store the
        batch engine wrote recomputes *zero* cells (poison faults on
        every key would quarantine any recompute)."""
        cells = [
            SweepCell(kind, 1, g, "idle", seed, f=4)
            for kind in ("table1", "tolerance")
            for seed in range(3)
        ]
        store = RunStore(str(tmp_path / "warm"))
        first = execute_plan(cells, store=store)
        poison = FaultPlan({
            cell_key_of(c): FaultSpec("error", attempts=None) for c in cells
        })
        replay = _per_cell(cells, store=store, faults=poison)
        assert json.dumps(replay) == json.dumps(first)
        assert not any(r.get("failed") for recs in replay for r in recs)


class TestFallback:
    def test_engine_error_warns_and_recomputes_per_cell(self, g, monkeypatch):
        """An engine error on a group is never silent: the plan warns,
        naming the group's size, its first cell key and the exception,
        and still returns the per-cell records byte for byte."""
        cells = [
            SweepCell("table1", 1, g, "squatter", seed, f=4) for seed in range(4)
        ]
        reference = _per_cell(cells)

        def broken(cells, indices, finish):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(batching, "run_batch_group", broken)
        with pytest.warns(RuntimeWarning, match="batch engine fallback") as caught:
            records = execute_plan(cells)
        assert json.dumps(records) == json.dumps(reference)
        [warning] = caught.list
        message = str(warning.message)
        assert "group of 4 cell(s)" in message
        assert cell_key_of(cells[0]) in message
        assert "RuntimeError: engine exploded" in message
