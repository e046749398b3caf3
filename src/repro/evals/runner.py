"""Execute a named eval suite through the standard plan executor.

One suite run is a sequence of per-solver sub-plans: the suite grid is
partitioned by Table 1 serial (grids put rows outermost, so partitioning
preserves plan order) and each partition flows through
:func:`repro.scenarios.run_scenarios` — i.e. the same fault-tolerant,
batched, store-aware ``execute_plan`` every sweep uses.  Consequences,
for free:

* a warm :class:`~repro.analysis.store.RunStore` answers the whole suite
  with **zero** solver calls;
* ``workers=N`` parallelises within each sub-plan and produces records
  byte-identical to the serial run;
* solver crashes quarantine under the executor's retry policy instead of
  killing the suite — the report carries them as ``quarantined`` rows.

Partitioning by solver exists so wall time can be attributed per solver
(the leaderboard's one non-deterministic, display-only column) without
per-cell clock reads.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence, Union

from ..analysis.experiments import ExecutionPolicy
from ..analysis.store import RunStore
from ..errors import ConfigurationError
from ..scenarios import ResultSet, _normalize_algorithm, run_scenarios
from .registry import get_suite
from .report import EvalReport

__all__ = ["run_suite", "resolve_solvers"]


def resolve_solvers(suite_name: str,
                    solvers: Sequence[Union[int, str]]) -> list:
    """Normalise a solver selection against a suite's own solver set.

    Accepts serials, decimal strings, solver names, or ``theoremN``
    designators (everything :func:`repro.scenarios.grid` accepts for its
    ``rows`` axis).  Selecting a solver the suite does not exercise is an
    error naming both sides — a silent empty filter would pin an empty
    expected file.
    """
    suite = get_suite(suite_name)
    available = sorted({s.serial for s in suite.build()})
    wanted = []
    for solver in solvers:
        serial = _normalize_algorithm(solver)
        if serial not in available:
            raise ConfigurationError(
                f"suite {suite_name!r} does not exercise solver {solver!r} "
                f"(serial {serial}); it runs serials "
                f"{', '.join(map(str, available))}"
            )
        if serial not in wanted:
            wanted.append(serial)
    return wanted


def run_suite(
    name: str,
    store: Optional[RunStore] = None,
    workers: Optional[int] = None,
    solvers: Optional[Sequence[Union[int, str]]] = None,
    resume: bool = True,
    policy: Optional[ExecutionPolicy] = None,
) -> EvalReport:
    """Run one registered suite and aggregate it into an :class:`EvalReport`.

    ``solvers`` restricts the suite to a subset of its serials (see
    :func:`resolve_solvers`); ``store``/``workers``/``policy``
    pass straight through to the executor with sweep semantics.
    """
    suite = get_suite(name)
    suite_grid = suite.build()
    if solvers is not None:
        wanted = set(resolve_solvers(name, solvers))
        suite_grid = suite_grid.filter(lambda s: s.serial in wanted)

    serials = list(dict.fromkeys(s.serial for s in suite_grid))
    results = ResultSet()
    wall: Dict[int, float] = {}
    for serial in serials:
        sub = [s for s in suite_grid if s.serial == serial]
        # repro: allow-wallclock — display-only per-solver timing, never pinned
        start = time.perf_counter()
        records = run_scenarios(sub, workers=workers, store=store,
                                resume=resume, policy=policy)
        # repro: allow-wallclock — closes the display-only span opened above
        wall[serial] = time.perf_counter() - start
        results.extend(records)
    return EvalReport(suite, results, wall)
