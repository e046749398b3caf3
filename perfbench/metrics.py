"""Metric names and units, and the result line the benchmark prints.

Every workload prints every end-to-end metric on a timed run
(``--trace 0``) and every per-layer metric on a traced run
(``--trace 1``); a per-layer metric a workload does not exercise reads 0.
``BENCHMARK.json`` declares the same names (a test keeps them in step).
"""

from __future__ import annotations

import json
import re
from typing import Dict

from .tracing import LAYERS

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
    "cold_cells_per_s": "1/s",
    "warm_cells_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "throughput_rps": "1/s",
}

PER_LAYER: Dict[str, str] = {
    "startup.import_s": "s",
    "startup.modules_loaded": "count",
    "startup.networkx_loaded": "count",
    "scenarios.compile_s": "s",
    "scenarios.cells": "count",
    "graphs.build_calls": "count",
    "graphs.build_s": "s",
    "graphs.quotient_check_s": "s",
    "experiments.plan_self_s": "s",
    "experiments.key_s": "s",
    "experiments.retries": "count",
    "experiments.quarantined": "count",
    "batching.groups": "count",
    "batching.cells_batched": "count",
    "batching.cells_fallback": "count",
    "batching.batched_ratio": "ratio",
    "batching.run_s": "s",
    "store.open_s": "s",
    "store.get_calls": "count",
    "store.hits": "count",
    "store.get_s": "s",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.bytes_written": "bytes",
    "core.solve_calls": "count",
    "core.setup_s": "s",
    **{f"core.row{serial}_s": "s" for serial in range(1, 8)},
    "mapping.plan_calls": "count",
    "mapping.plan_s": "s",
    "sim.worlds": "count",
    "sim.step_calls": "count",
    "sim.step_s": "s",
    "sim.us_per_step": "us",
    "sim.trace_record_calls": "count",
    "metrics.record_calls": "count",
    "metrics.record_s": "s",
    "gathering.oracle_calls": "count",
    "gathering.oracle_s": "s",
    "serve.requests": "count",
    "serve.warm_hits": "count",
    "serve.dedup_joined": "count",
    "serve.computed": "count",
    "serve.busy_429": "count",
    "serve.compute_s": "s",
    "serve.overhead_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], trace: bool) -> str:
    """The JSON object printed as the last line of standard output.

    Raises ``ValueError`` unless ``values`` holds exactly the declared
    metrics of the mode.
    """
    declared = PER_LAYER if trace else END_TO_END
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise ValueError(f"metric names differ: missing {missing}, undeclared {extra}")
    metrics = {
        name: {"value": values[name], "unit": declared[name]} for name in declared
    }
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
