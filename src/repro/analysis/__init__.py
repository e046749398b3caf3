"""Analysis: validation, metrics, complexity fits, tables, plan execution.

Sweeps are built with the declarative Scenario API in
:mod:`repro.scenarios` (``grid()`` and its presets) and run through
:func:`execute_plan`, re-exported here with its store and fault
machinery.
"""

from ..sim.report import dispersion_violations, is_dispersed, settlement_histogram
from .complexity import PowerFit, fit_power_law
from .experiments import (
    DEFAULT_POLICY,
    ExecutionPolicy,
    SweepCell,
    cell_key_of,
    execute_plan,
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
    "record_from_report",
    "success_rate",
    "summarize",
    "render_table",
    "format_big",
    "dispersion_violations",
    "is_dispersed",
    "settlement_histogram",
]
