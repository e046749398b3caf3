"""Synchronous mobile-robot simulator (the paper's model, Section 1.1)."""

from .ids import assign_ids, id_space_upper_bound, validate_ids
from .robot import (
    SETTLED,
    STAY,
    TOBESETTLED,
    ByzantineAPI,
    Move,
    PublicView,
    Robot,
    RobotAPI,
    Sleep,
    Stay,
)
from .reference import ReferenceWorld
from .report import RunReport, finish_report
from .schedulers import (
    SCHEDULERS,
    Scheduler,
    SchedulerSpec,
    build_scheduler,
    canonical_scheduler,
    parse_scheduler,
    scheduler_rng,
)
from .trace import Trace, TraceEvent
from .world import World

__all__ = [
    "World",
    "ReferenceWorld",
    "SCHEDULERS",
    "Scheduler",
    "SchedulerSpec",
    "build_scheduler",
    "canonical_scheduler",
    "parse_scheduler",
    "scheduler_rng",
    "Robot",
    "RobotAPI",
    "ByzantineAPI",
    "PublicView",
    "Move",
    "Stay",
    "STAY",
    "Sleep",
    "SETTLED",
    "TOBESETTLED",
    "RunReport",
    "finish_report",
    "Trace",
    "TraceEvent",
    "assign_ids",
    "validate_ids",
    "id_space_upper_bound",
]
