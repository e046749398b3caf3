"""Analysis: validation, metrics, complexity fits, tables, experiment sweeps.

The four sweep entry points here are compatibility presets over the
declarative Scenario API in :mod:`repro.scenarios` — new experiment code
should build :class:`~repro.scenarios.ScenarioGrid`s directly.
"""

from ..sim.report import dispersion_violations, is_dispersed, settlement_histogram
from .complexity import PowerFit, doubling_ratios, fit_power_law
from .experiments import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    SweepCell,
    cell_key_of,
    execute_plan,
    run_table1,
    run_table1_row,
    scaling_sweep,
    scheduler_matrix,
    strategy_matrix,
    tolerance_sweep,
)
from .faults import FaultPlan, FaultSpec
from .metrics import record_from_report, success_rate, summarize
from .store import RunStore, cell_key
from .tables import format_big, render_table

__all__ = [
    "DEFAULT_POLICY",
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "RunStore",
    "SweepCell",
    "cell_key",
    "cell_key_of",
    "execute_plan",
    "PowerFit",
    "fit_power_law",
    "doubling_ratios",
    "record_from_report",
    "success_rate",
    "summarize",
    "render_table",
    "format_big",
    "dispersion_violations",
    "is_dispersed",
    "settlement_histogram",
    "run_table1",
    "run_table1_row",
    "tolerance_sweep",
    "scaling_sweep",
    "scheduler_matrix",
    "strategy_matrix",
]
