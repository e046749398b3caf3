"""repro — Byzantine Dispersion on Graphs (Molla, Mondal & Moses Jr., IPDPS 2021).

A full reproduction of the paper's system: an anonymous port-labeled
graph substrate, a synchronous mobile-robot simulator with sub-round
semantics, the complete adversary zoo (weak and strong Byzantine), all
seven Table 1 algorithms, the Theorem 8 impossibility construction,
prior-work baselines, and the ``repro table1`` command that regenerates
the paper's results table.

Quick start — one run::

    from repro import solve_theorem1, Adversary
    from repro.graphs import random_connected

    g = random_connected(12, seed=1)          # view-distinguishable w.h.p.
    report = solve_theorem1(g, f=11, adversary=Adversary("squatter"))
    assert report.success                     # dispersed despite n-1 liars

Quick start — declarative scenarios (the experiment API)::

    from repro import Scenario, grid
    from repro.graphs import random_connected

    g = random_connected(9, seed=0)
    # One cell: row 5 at its tolerance bound under a hostile strategy.
    records = Scenario(algorithm=5, graph=g, strategy="squatter").run()
    # A whole sweep: rows x strategies, resumable via store=RunStore(...).
    results = grid(rows=[4, 5], graphs=g,
                   strategies=["squatter", "idle"]).run()
    print(results.summarize("strategy"))

A :class:`~repro.scenarios.Scenario` is serializable (``to_dict`` /
``from_dict``; ``repro scenario file.json`` on the CLI) and its
``key()`` is the run-store cache key of the work it describes.

Quick start — the activation-scheduler axis (who acts each round)::

    records = Scenario(algorithm=5, graph=g, strategy="squatter",
                       scheduler="semi_synchronous(p=0.9)").run()

Sweeps are fault-tolerant: the executor retries failing cells with
backoff, respawns crashed worker pools, and quarantines cells that keep
failing as structured failure records (``results.failures()``) instead
of crashing the sweep — tune via
:class:`~repro.analysis.experiments.ExecutionPolicy` (``strict=True``
restores raising).  See EXPERIMENTS.md "Failure semantics".

Quick start — named eval suites (solver leaderboards)::

    from repro.evals import run_suite
    print(run_suite("torus_strong").table())   # repro eval on the CLI

Suite behaviour is pinned under ``benchmarks/EVAL_<suite>.json`` and
gated by ``benchmarks/check_evals.py``; see EXPERIMENTS.md "Eval
suites".

See README.md for the architecture tour and EXPERIMENTS.md for the full
scenario-axis reference (including the cache-compatibility rule).
"""

from .analysis import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    RunStore,
)

from .byzantine import (
    STRATEGIES,
    STRONG_STRATEGIES,
    WEAK_STRATEGIES,
    Adversary,
    get_strategy,
)
from .core import (
    TABLE1,
    Table1Row,
    demonstrate_impossibility,
    dispersion_using_map,
    get_row,
    impossibility_applies,
    solve_theorem1,
    solve_theorem2,
    solve_theorem3,
    solve_theorem4,
    solve_theorem5,
    solve_theorem6,
    solve_theorem7,
)
from .errors import (
    ConfigurationError,
    GraphStructureError,
    MapError,
    ReproError,
    SimulationError,
    SweepFaultError,
    ValidationError,
)
from .scenarios import (
    ResultSet,
    Scenario,
    ScenarioGrid,
    grid,
    run_scenarios,
)
from .sim import (
    SCHEDULERS,
    RunReport,
    SchedulerSpec,
    World,
    build_scheduler,
    canonical_scheduler,
    parse_scheduler,
)

__version__ = "1.25.0"

__all__ = [
    "__version__",
    "World",
    "RunReport",
    "Scenario",
    "ScenarioGrid",
    "ResultSet",
    "grid",
    "run_scenarios",
    "RunStore",
    "ExecutionPolicy",
    "DEFAULT_POLICY",
    "FaultPlan",
    "FaultSpec",
    "SCHEDULERS",
    "SchedulerSpec",
    "build_scheduler",
    "canonical_scheduler",
    "parse_scheduler",
    "Adversary",
    "STRATEGIES",
    "WEAK_STRATEGIES",
    "STRONG_STRATEGIES",
    "get_strategy",
    "solve_theorem1",
    "solve_theorem2",
    "solve_theorem3",
    "solve_theorem4",
    "solve_theorem5",
    "solve_theorem6",
    "solve_theorem7",
    "dispersion_using_map",
    "demonstrate_impossibility",
    "impossibility_applies",
    "TABLE1",
    "Table1Row",
    "get_row",
    "ReproError",
    "GraphStructureError",
    "MapError",
    "SimulationError",
    "SweepFaultError",
    "ConfigurationError",
    "ValidationError",
]
