"""Map construction: token protocol, pairing tournament, group modes, voting."""

from .group_mapping import (
    GroupPlan,
    build_group_plan,
    group_phase_program,
    group_plan_rounds,
)
from .map_merge import decode_canonical, majority_encoding, majority_map
from .pairing import paper_pairing_schedule, pairs_covered, round_robin_schedule
from .token_mapping import (
    ExplorerMemo,
    RunSpec,
    agent_program,
    explorer_core,
    plan_honest_run,
    run_slot_rounds,
    sleep_until,
    token_program,
)

__all__ = [
    "RunSpec",
    "ExplorerMemo",
    "explorer_core",
    "plan_honest_run",
    "agent_program",
    "token_program",
    "run_slot_rounds",
    "sleep_until",
    "paper_pairing_schedule",
    "round_robin_schedule",
    "pairs_covered",
    "majority_encoding",
    "majority_map",
    "decode_canonical",
    "GroupPlan",
    "build_group_plan",
    "group_phase_program",
    "group_plan_rounds",
]
