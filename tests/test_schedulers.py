"""Activation schedulers: spec algebra, world semantics, pipeline integration.

The contracts under test:

* spec strings parse, validate, and canonicalise (positional == named ==
  canonical; bad names/args raise ``ConfigurationError``);
* the ``synchronous`` default is **byte-identical** to the scheduler-free
  engine: same ``RunReport``s, same records, same store cell keys — so
  every pre-existing store cell stays warm;
* ``adversarial(window)`` starves the lowest-ranked unsettled honest
  robot but honours the fairness bound (every robot activated at least
  once in any ``window`` consecutive rounds);
* ``semi_synchronous(p)`` is deterministic across repeated, parallel,
  and warm-store runs (the scheduler RNG is a pure function of the
  adversary seed);
* ``crash_recovery(down, up)`` grants zero activations during outages;
* non-default schedulers land in distinct store cells, tag their records
  with ``scheduler`` + ``activations``, and never crash a sweep (timing-
  induced protocol breakdowns become violations in failed records).
"""

import pytest

from repro import Adversary, Scenario, World, grid, solve_theorem4
from repro.analysis import RunStore
from repro.analysis.experiments import SweepCell, cell_key_of
from repro.cli import main as cli_main
from repro.errors import ConfigurationError, SimulationError
from repro.graphs import random_connected
from repro.sim import ReferenceWorld
from repro.sim.robot import Stay
from repro.sim.schedulers import (
    SCHEDULERS,
    AdversarialScheduler,
    SchedulerSpec,
    build_scheduler,
    canonical_scheduler,
    parse_scheduler,
    scheduler_rng,
)


@pytest.fixture(scope="module")
def g():
    return random_connected(8, seed=5)


def idle_forever(api):
    while True:
        yield Stay()


# --------------------------------------------------------------------- #
# Spec parsing and canonicalisation
# --------------------------------------------------------------------- #

class TestSpecs:
    def test_positional_named_and_canonical_converge(self):
        forms = [
            "semi_synchronous(0.5)",
            "semi_synchronous(p=0.5)",
            " semi_synchronous( p = 0.5 ) ",
        ]
        assert {parse_scheduler(f).canonical() for f in forms} == {
            "semi_synchronous(p=0.5)"
        }
        assert (
            parse_scheduler("crash_recovery(2,6)").canonical()
            == parse_scheduler("crash_recovery(down=2,up=6)").canonical()
            == "crash_recovery(down=2,up=6)"
        )

    def test_canonical_is_a_fixed_point(self):
        for spec in ("synchronous", "adversarial(window=4)",
                     "semi_synchronous(p=0.25)", "crash_recovery(down=1,up=3)"):
            assert canonical_scheduler(spec) == spec
            assert canonical_scheduler(canonical_scheduler(spec)) == spec

    def test_instances_canonicalise_back_to_their_spec(self):
        for spec in ("synchronous", "adversarial(window=4)",
                     "semi_synchronous(p=0.25)", "crash_recovery(down=1,up=3)"):
            assert canonical_scheduler(build_scheduler(spec)) == spec

    def test_none_is_synchronous(self):
        assert canonical_scheduler(None) == "synchronous"

    @pytest.mark.parametrize("bad", [
        "warp_drive",                     # unknown name
        "semi_synchronous",               # missing required arg
        "semi_synchronous(0.5, 0.6)",     # too many args
        "semi_synchronous(q=0.5)",        # unknown arg
        "semi_synchronous(p=0)",          # p out of (0, 1]
        "semi_synchronous(p=1.5)",
        "adversarial(window=0)",          # window < 1
        "adversarial(window=2.5)",        # non-int
        "crash_recovery(down=2)",         # missing up
        "crash_recovery(down=2,down=3)",  # duplicate
        "crash_recovery(down=2,3)",       # positional after named
        "no()parse((",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ConfigurationError):
            parse_scheduler(bad)

    def test_registry_matches_zoo(self):
        assert set(SCHEDULERS) == {
            "synchronous", "semi_synchronous", "adversarial", "crash_recovery"
        }

    def test_spec_dataclass_builds(self):
        spec = SchedulerSpec("crash_recovery", (("down", 2), ("up", 6)))
        sched = spec.build()
        assert sched.down == 2 and sched.up == 6

    def test_rng_stream_is_seed_deterministic(self):
        assert scheduler_rng(7).random() == scheduler_rng(7).random()
        assert scheduler_rng(7).random() != scheduler_rng(8).random()


# --------------------------------------------------------------------- #
# World semantics
# --------------------------------------------------------------------- #

class TestWorldSemantics:
    def test_synchronous_spec_is_the_fast_path(self, g):
        assert World(g, scheduler="synchronous")._scheduler is None
        assert World(g)._scheduler is None

    def test_reference_world_rejects_schedulers(self, g):
        with pytest.raises(SimulationError):
            ReferenceWorld(g, scheduler="semi_synchronous(p=0.5)")
        ReferenceWorld(g, scheduler="synchronous")  # default spec is fine

    def test_adversarial_fairness_bound(self, g):
        window = 3
        base = AdversarialScheduler(window)
        activations = {}

        def spy(rnd, roster, rng):
            active = base(rnd, roster, rng)
            for r in roster:
                activations.setdefault(r.true_id, [])
                if r.true_id in active:
                    activations[r.true_id].append(rnd)
            return active

        world = World(g, scheduler=spy)
        for rid in range(4):
            world.add_robot(rid, rid, idle_forever)
        rounds = 30
        for _ in range(rounds):
            world.step()
        # Every robot is activated at least once in any `window`
        # consecutive rounds: first activation within the first window,
        # consecutive gaps at most `window`, none starved at the end.
        for rid, rnds in activations.items():
            assert rnds, f"robot {rid} never activated"
            assert rnds[0] < window
            gaps = [b - a for a, b in zip(rnds, rnds[1:])]
            assert all(gap <= window for gap in gaps), (rid, rnds)
            assert rounds - rnds[-1] <= window
        # The target (lowest rank, unsettled honest) is maximally starved
        # — activated exactly on the fairness deadline — everyone else
        # runs every round.
        assert len(activations[0]) == rounds // window
        for rid in (1, 2, 3):
            assert len(activations[rid]) == rounds

    def test_crash_recovery_outage_grants_no_activations(self, g):
        world = World(g, scheduler="crash_recovery(down=2,up=3)")
        for rid in range(3):
            world.add_robot(rid, rid, idle_forever)
        per_round = []
        for _ in range(10):
            before = world.activations
            world.step()
            per_round.append(world.activations - before)
        # cycle = up(3) rounds of full activation, then down(2) of none
        assert per_round == [3, 3, 3, 0, 0, 3, 3, 3, 0, 0]

    def test_semi_synchronous_draws_are_seed_deterministic(self, g):
        def run(seed):
            world = World(g, scheduler="semi_synchronous(p=0.5)",
                          scheduler_seed=seed)
            for rid in range(5):
                world.add_robot(rid, rid, idle_forever)
            for _ in range(20):
                world.step()
            return world.activations

        assert run(3) == run(3)
        assert any(run(3) != run(s) for s in (4, 5, 6))

    def test_inactive_robot_record_stays_frozen(self, g):
        # A robot that flips its flag every activation: under a global
        # outage no flips happen, so the public record is frozen.
        def flipper(api):
            while True:
                api.set_flag(1 - api._robot.flag)
                yield Stay()

        world = World(g, scheduler="crash_recovery(down=5,up=1)")
        robot = world.add_robot(0, 0, flipper)
        world.step()          # round 0: up -> flag flips to 1
        assert robot.flag == 1
        for _ in range(5):    # rounds 1-5: down -> frozen
            world.step()
        assert robot.flag == 1
        world.step()          # round 6: up again
        assert robot.flag == 0


# --------------------------------------------------------------------- #
# Byte-identical synchronous default
# --------------------------------------------------------------------- #

class TestSynchronousPinned:
    def test_reports_identical_to_schedulerless_engine(self, g):
        base = solve_theorem4(g, f=1, adversary=Adversary("squatter", seed=0), seed=0)
        spec = solve_theorem4(g, f=1, adversary=Adversary("squatter", seed=0), seed=0,
                              scheduler="synchronous")
        assert base == spec  # dataclass equality: every field, meta included
        assert "scheduler" not in spec.meta

    def test_scenario_keys_and_records_identical(self, g):
        default = Scenario(algorithm=5, graph=g, strategy="squatter")
        explicit = Scenario(algorithm=5, graph=g, strategy="squatter",
                            scheduler="synchronous")
        assert default == explicit
        assert default.key() == explicit.key()
        assert default.to_dict() == explicit.to_dict()  # canonicalises out
        assert list(default.run()) == list(explicit.run())

    def test_synchronous_records_carry_no_scheduler_keys(self, g):
        (rec,) = Scenario(algorithm=5, graph=g, strategy="squatter").run()
        assert "scheduler" not in rec and "activations" not in rec

    def test_cell_key_ignores_default_axis_only(self, g):
        base = SweepCell(kind="table1", serial=5, payload=g, strategy="squatter", seed=0)
        same = SweepCell(kind="table1", serial=5, payload=g, strategy="squatter",
                         seed=0, scheduler="synchronous")
        other = SweepCell(kind="table1", serial=5, payload=g, strategy="squatter",
                          seed=0, scheduler="semi_synchronous(p=0.5)")
        assert cell_key_of(base) == cell_key_of(same)
        assert cell_key_of(other) != cell_key_of(base)


# --------------------------------------------------------------------- #
# Pipeline integration: grids, store, CLI
# --------------------------------------------------------------------- #

class TestPipeline:
    def test_grid_axis_expansion_order(self, g):
        gr = grid(rows=[4, 5], graphs=g, strategies="squatter",
                  schedulers=["synchronous", "adversarial(window=4)"],
                  seeds=[0, 1])
        combos = [(s.serial, s.scheduler, s.seed) for s in gr]
        assert combos == [
            (4, "synchronous", 0), (4, "synchronous", 1),
            (4, "adversarial(window=4)", 0), (4, "adversarial(window=4)", 1),
            (5, "synchronous", 0), (5, "synchronous", 1),
            (5, "adversarial(window=4)", 0), (5, "adversarial(window=4)", 1),
        ]

    def test_scenario_roundtrip_and_distinct_cells(self, g):
        sc = Scenario(algorithm=4, graph=g, strategy="squatter",
                      scheduler="semi_synchronous(0.5)")
        assert sc.scheduler == "semi_synchronous(p=0.5)"  # canonicalised
        rt = Scenario.from_json(sc.to_json())
        assert rt == sc and rt.key() == sc.key()
        assert sc.key() != Scenario(algorithm=4, graph=g, strategy="squatter").key()
        assert "scheduler=semi_synchronous(p=0.5)" in sc.describe()

    def test_scenario_rejects_non_string_and_unknown_schedulers(self, g):
        with pytest.raises(ConfigurationError):
            Scenario(algorithm=4, graph=g, scheduler="warp_drive")
        with pytest.raises(ConfigurationError):
            Scenario(algorithm=4, graph=g, scheduler=AdversarialScheduler(2))

    def test_semi_synchronous_serial_parallel_warm_identical(self, g, tmp_path):
        gr = grid(rows=[4, 5], graphs=g, strategies="squatter",
                  schedulers="semi_synchronous(p=0.5)", seeds=0)
        serial = list(gr.run())
        parallel = list(gr.run(workers=2))
        store = RunStore(tmp_path / "store")
        first = list(gr.run(store=store))
        assert store.puts == len(gr) and store.hits == 0
        warm = list(gr.run(store=store))
        assert store.hits == len(gr)  # answered without solver calls
        assert serial == parallel == first == warm
        for rec in serial:
            assert rec["scheduler"] == "semi_synchronous(p=0.5)"
            assert rec["activations"] > 0

    def test_scheduler_breakdowns_are_recorded_not_raised(self, g):
        # Aggressive starvation breaks the paper's synchrony assumptions;
        # the sweep must finish with failed records, never crash.
        records = grid(rows=[4, 5], graphs=g, strategies="squatter",
                       schedulers="crash_recovery(down=9,up=1)", seeds=0).run()
        assert len(records) == 2
        assert all(rec["success"] is False for rec in records)

    def test_scheduler_matrix_preset(self, g, tmp_path):
        """Rows × schedulers is a plain grid crossing the scheduler axis."""
        schedulers = ["synchronous", "crash_recovery(down=1,up=9)"]
        gr = grid(rows=[5], graphs=g, strategies="squatter", f="max",
                  schedulers=schedulers)
        assert [s.scheduler for s in gr] == schedulers
        store = RunStore(tmp_path / "store")
        records = gr.run(store=store)
        assert len(records) == 2
        # The synchronous column shares its cell with a scheduler-free grid.
        assert gr[0].key() == Scenario(algorithm=5, graph=g, strategy="squatter").key()
        summary = records.summarize("scheduler", missing="synchronous")
        assert {row["scheduler"] for row in summary} == set(schedulers)

    def test_cli_sweep_scheduler(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = cli_main([
            "sweep", "--n", "8", "--serials", "5", "--strategies", "squatter",
            "--scheduler", "synchronous,crash_recovery(down=1,up=9)",
            "--store", store,
        ])
        out = capsys.readouterr().out
        assert "By scheduler" in out
        assert "crash_recovery(down=1,up=9)" in out
        assert code == 1  # the starved run fails; exit reflects success
        # Warm re-run answers every cell (including synchronous) from disk.
        cli_main([
            "sweep", "--n", "8", "--serials", "5", "--strategies", "squatter",
            "--scheduler", "synchronous,crash_recovery(down=1,up=9)",
            "--store", store,
        ])
        out = capsys.readouterr().out
        assert "2 cell(s) answered from cache, 0 computed" in out

    def test_cli_rejects_bad_scheduler(self, capsys):
        for argv in (
            ["sweep", "--n", "8", "--scheduler", "warp_drive"],
            ["run", "--row", "4", "--n", "8", "--scheduler", "warp_drive"],
        ):
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            # A clean one-line message, never a traceback.
            assert "bad --scheduler value" in str(exc.value)

    def test_rejected_tolerance_records_keep_the_scheduler_axis(self, g):
        row5 = Scenario(algorithm=5, graph=g, strategy="squatter",
                        kind="tolerance", scheduler="adversarial(window=4)",
                        f=g.n)  # beyond the driver's bound -> rejected
        (rec,) = row5.run()
        assert rec["rejected"] is True
        assert rec["scheduler"] == "adversarial(window=4)"
        assert rec["activations"] == 0
        # The synchronous rejection stays the legacy record shape.
        (legacy,) = Scenario(algorithm=5, graph=g, strategy="squatter",
                             kind="tolerance", f=g.n).run()
        assert legacy["rejected"] is True and "scheduler" not in legacy
