"""The ``repro`` surface perfbench's tracer wraps.

``perfbench/tracing.py`` wraps ``repro`` functions by module and
attribute name, and some of its counters read a target's arguments by
position.  A renamed target fails a traced benchmark run with a
``KeyError``, and a reshaped one miscounts silently; these checks catch
both in tier-1, resolving every target the way ``Tracer.install`` does
without installing anything.
"""

import importlib
import inspect

from perfbench import tracing
from repro.analysis.batching import plan_groups, run_batch_group
from repro.scenarios import run_scenarios


def test_every_target_resolves():
    targets = [(module, attr) for _, module, attr, _ in tracing.LAYER_TARGETS]
    targets += [(module, attr) for module, attr, _ in tracing.COUNT_TARGETS]
    for module, attr in targets:
        owner, name = tracing._owner(importlib.import_module(module), attr)
        assert callable(vars(owner)[name]), f"{module}.{attr}"


def test_counted_arguments_keep_their_positions():
    """``_after_run_batch_group`` reads ``args[1]`` (or ``indices``) and
    ``_after_run_scenarios`` ``args[0]`` (or ``scenarios``)."""
    assert list(inspect.signature(run_batch_group).parameters)[1] == "indices"
    assert list(inspect.signature(run_scenarios).parameters)[0] == "scenarios"
    # ``_after_plan_groups`` unpacks ``(groups, rest)``.
    assert plan_groups([], [], [], lambda i: None) == ([], [])
