"""Span tracing around the ``repro`` layers, installed from outside.

The traced run wraps public entry points of each ``repro`` subpackage
(see :data:`LAYER_TARGETS`) with timing shims.  Nothing under ``src/`` is
edited: the shims replace the function objects in every loaded
``repro`` module (and module-level registries) that refer to them, and
:meth:`Tracer.uninstall` puts the originals back.

Every call becomes a span ``{id, name, layer, start, end, parent, run}``.
A span with children is kept as its own record; a childless span is
folded into one aggregate record per ``(parent, name)`` whose duration
``end - start`` is the summed duration of its calls and whose ``calls``
field counts them.  That keeps hot leaves such as ``World.step`` from
producing millions of records while leaving the self-time arithmetic
exact.  Spans live in memory until :meth:`Tracer.write_jsonl`.

Self time of a span is its duration minus the durations of its direct
children (children run on the span's own thread, so they never
overlap).  A layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layers in report order; every span carries one of these names.
LAYERS = (
    "scenarios", "graphs", "experiments", "batching", "store", "core",
    "mapping", "sim", "metrics", "gathering", "serve",
)

#: (layer, module, attribute, span name).  ``attribute`` may be
#: ``Class.method``.  Row solvers are named after the Table 1 row they
#: serve (``solve_theorem3`` is row 4).
LAYER_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("scenarios", "repro.scenarios", "grid", "scenarios.grid"),
    ("scenarios", "repro.scenarios", "table1_grid", "scenarios.table1_grid"),
    ("scenarios", "repro.scenarios", "run_scenarios", "scenarios.run_scenarios"),
    ("graphs", "repro.graphs.generators", "random_connected", "graphs.build"),
    ("graphs", "repro.graphs.specs", "resolve_spec", "graphs.resolve_spec"),
    ("graphs", "repro.graphs.quotient", "is_quotient_isomorphic", "graphs.quotient_check"),
    ("experiments", "repro.analysis.experiments", "execute_plan", "experiments.execute_plan"),
    ("experiments", "repro.analysis.experiments", "cell_key_of", "experiments.cell_key_of"),
    ("batching", "repro.analysis.batching", "plan_groups", "batching.plan_groups"),
    ("batching", "repro.analysis.batching", "run_batch_group", "batching.run_batch_group"),
    ("store", "repro.analysis.store", "RunStore.__init__", "store.open"),
    ("store", "repro.analysis.store", "RunStore.get", "store.get"),
    ("store", "repro.analysis.store", "RunStore.put", "store.put"),
    ("core", "repro.core.quotient_algorithm", "solve_theorem1", "core.row1"),
    ("core", "repro.core.general_graphs", "solve_theorem2", "core.row2"),
    ("core", "repro.core.general_graphs", "solve_theorem5", "core.row3"),
    ("core", "repro.core.general_graphs", "solve_theorem3", "core.row4"),
    ("core", "repro.core.general_graphs", "solve_theorem4", "core.row5"),
    ("core", "repro.core.strong_byzantine", "solve_theorem7", "core.row6"),
    ("core", "repro.core.strong_byzantine", "solve_theorem6", "core.row7"),
    ("core", "repro.core._setup", "build_population", "core.setup"),
    ("mapping", "repro.mapping.token_mapping", "plan_honest_run", "mapping.plan_honest_run"),
    ("mapping", "repro.mapping.group_mapping", "build_group_plan", "mapping.build_group_plan"),
    ("sim", "repro.sim.world", "World.__init__", "sim.world_init"),
    ("sim", "repro.sim.world", "World.step", "sim.step"),
    ("metrics", "repro.analysis.metrics", "record_from_report", "metrics.record_from_report"),
    ("gathering", "repro.gathering.oracle", "canonical_gather_node", "gathering.oracle"),
    ("gathering", "repro.gathering.oracle", "weak_gathering_rounds", "gathering.oracle"),
    ("gathering", "repro.gathering.oracle", "hirose_gathering_rounds", "gathering.oracle"),
    ("gathering", "repro.gathering.oracle", "strong_gathering_rounds", "gathering.oracle"),
)

#: Called so often that only a call count is kept (no span).
COUNT_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.trace", "Trace.record", "sim.trace_record_calls"),
)

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder; one stack per thread."""

    def __init__(self) -> None:
        self._kept: List[Dict] = []  # spans that had children, and roots
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._aggregates: List[Dict] = []  # one dict per thread
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        #: store directory -> its size in bytes when first opened
        self.store_paths: Dict[str, int] = {}

    # -- recording ----------------------------------------------------- #

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.agg = {}
            with self._lock:
                self._aggregates.append(local.agg)
        return local

    def wrap(self, fn: Callable, name: str, layer: str,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span; ``after(tracer, result, args, kwargs)``
        may add counters once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            # frame: [id, start, has_children, run]
            span_id = next(tracer._ids)
            frame = [span_id, 0.0, False, span_id if parent is None else parent[3]]
            stack.append(frame)
            frame[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                parent_id = parent[0] if parent is not None else None
                if parent is not None:
                    parent[2] = True
                if frame[2] or parent is None:
                    tracer._kept.append({
                        "id": frame[0], "name": name, "layer": layer,
                        "start": frame[1], "end": end, "parent": parent_id,
                        "run": frame[3], "calls": 1,
                    })
                else:
                    key = (parent_id, name)
                    agg = state.agg.get(key)
                    if agg is None:
                        state.agg[key] = {
                            "id": next(tracer._ids), "name": name,
                            "layer": layer, "start": frame[1],
                            "end": end, "parent": parent_id,
                            "run": frame[3], "calls": 1,
                        }
                    else:
                        agg["end"] += end - frame[1]
                        agg["calls"] += 1
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def counting(self, fn: Callable, counter: str) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def spans(self) -> List[Dict]:
        """Every recorded span: kept spans first, then aggregates."""
        with self._lock:
            aggregates = [a for agg in self._aggregates for a in agg.values()]
        return list(self._kept) + aggregates

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    # -- installation -------------------------------------------------- #

    def _replace(self, original: object, replacement: object) -> None:
        """Point every ``repro`` module attribute and module-level dict
        value that is ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, replacement)
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._undo.append((value, key, original))
                            value[key] = replacement

    def install(self) -> "Tracer":
        """Wrap every target in :data:`LAYER_TARGETS` and
        :data:`COUNT_TARGETS` (their modules are imported first)."""
        # Import every target module before patching any, so no module
        # binds a shim by name where uninstall() would not find it.
        modules = [t[1] for t in LAYER_TARGETS] + [t[0] for t in COUNT_TARGETS]
        for mod_name in modules:
            importlib.import_module(mod_name)
        for layer, mod_name, attr, name in LAYER_TARGETS:
            module = sys.modules[mod_name]
            owner, attr_name = _owner(module, attr)
            original = vars(owner)[attr_name]
            wrapped = self.wrap(original, name, layer, after=_AFTER.get(name))
            if owner is module:
                self._replace(original, wrapped)
            else:
                self._undo.append((owner, attr_name, original))
                setattr(owner, attr_name, wrapped)
        for mod_name, attr, counter in COUNT_TARGETS:
            owner, attr_name = _owner(sys.modules[mod_name], attr)
            original = vars(owner)[attr_name]
            self._undo.append((owner, attr_name, original))
            setattr(owner, attr_name, self.counting(original, counter))
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._undo.clear()


def _owner(module, attr: str):
    if "." in attr:
        cls_name, method = attr.split(".", 1)
        return getattr(module, cls_name), method
    return module, attr


# -- counters taken from return values ---------------------------------- #

def _after_plan_groups(tracer: Tracer, result, args, kwargs) -> None:
    groups, rest = result
    tracer.counters["batching.groups"] += len(groups)
    tracer.counters["batching.cells_fallback"] += len(rest)


def _after_run_batch_group(tracer: Tracer, result, args, kwargs) -> None:
    indices = args[1] if len(args) > 1 else kwargs["indices"]
    tracer.counters["batching.cells_batched"] += len(indices) - len(result)
    tracer.counters["batching.cells_fallback"] += len(result)


def _after_get(tracer: Tracer, result, args, kwargs) -> None:
    if result is not None:
        tracer.counters["store.hits"] += 1


def _after_open(tracer: Tracer, result, args, kwargs) -> None:
    store = args[0]
    tracer.store_paths.setdefault(store.path, _dir_bytes(store.path))


def _after_run_scenarios(tracer: Tracer, result, args, kwargs) -> None:
    scenarios = args[0] if args else kwargs["scenarios"]
    tracer.counters["scenarios.cells"] += len(scenarios)
    for rec in result:
        if rec.get("failed"):
            tracer.counters["experiments.quarantined"] += 1
            tracer.counters["experiments.retries"] += max(0, int(rec.get("attempts", 1)) - 1)


_AFTER = {
    "batching.plan_groups": _after_plan_groups,
    "batching.run_batch_group": _after_run_batch_group,
    "store.get": _after_get,
    "store.open": _after_open,
    "scenarios.run_scenarios": _after_run_scenarios,
}


def _dir_bytes(path: str) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file():
            total += entry.stat().st_size
    return total


def settle_stores(tracer: Tracer) -> None:
    """Add to ``store.bytes_written`` what each opened store grew by since
    it was first opened; call before deleting a store directory."""
    for path, before in tracer.store_paths.items():
        tracer.counters["store.bytes_written"] += _dir_bytes(path) - before
    tracer.store_paths.clear()


# -- arithmetic over span lists ----------------------------------------- #

def duration(span: Dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: Iterable[Dict]) -> Dict[int, float]:
    """``span id -> self time``: duration minus direct children's."""
    spans = list(spans)
    child_total: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += duration(span)
    return {span["id"]: duration(span) - child_total[span["id"]] for span in spans}


def layer_self_times(spans: Iterable[Dict]) -> Dict[str, float]:
    """Self time summed per layer (every layer in :data:`LAYERS` present)."""
    spans = list(spans)
    own = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        out[span["layer"]] = out.get(span["layer"], 0.0) + own[span["id"]]
    return out


def root_time(spans: Iterable[Dict]) -> float:
    """Summed duration of top-level spans (the attributed wall time)."""
    return sum(duration(s) for s in spans if s["parent"] is None)


def totals_by_name(spans: Iterable[Dict]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Inclusive duration and call count summed per span name."""
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        seconds[span["name"]] += duration(span)
        calls[span["name"]] += span["calls"]
    return seconds, calls


def top_layers(self_by_layer: Dict[str, float], n: int = 3) -> List[str]:
    ranked = sorted(self_by_layer.items(), key=lambda kv: (-kv[1], kv[0]))
    return [name for name, secs in ranked[:n] if secs > 0]
