"""The three workloads: ``table1``, ``seed_sweep`` and ``serve``.

Each workload has a timed form (end-to-end metrics, no tracing) and a
traced form (per-layer metrics).  A traced form runs one fixed unit of
the workload untraced, then traced, then untraced again; the tracing
overhead is the traced wall time minus the mean of the untraced ones.

``repro`` is reached only through its public entry points:
``table1_grid``/``grid``, ``ScenarioGrid.run``, ``RunStore`` and
``repro serve`` over HTTP.

A timed form keeps, for each unit of work it times (a launch, a pass, a
phase, a block of requests), the machine's slowdown from the reference
samples of :mod:`perfbench.calibrate` just before and after it.  It
reports its times and rates scaled to the nominal machine, each unit by
its own slowdown and every latency by one for the whole run
(:func:`run_slowdown`); its notes print them as measured too.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import calibrate, inputs, metrics, tracing, verdict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch space inside the checkout: stores, server logs, span files.
WORK_DIR = ROOT / ".perfbench"

#: Fresh interpreters started to time ``import repro``; the median is
#: ``setup_s``.
SETUP_LAUNCHES = 9
#: Server boots timed for ``setup_s`` on ``serve`` (the last one serves).
SERVE_BOOTS = 5
#: A timed ``table1`` run makes at least this many passes.
TABLE1_MIN_PASSES = 5
#: The pinned ``table1`` digest covers the records of the first passes.
TABLE1_PIN_PASSES = 3
#: Passes in the traced unit of ``table1``.
TRACED_TABLE1_PASSES = 3
#: A timed ``seed_sweep`` run makes at least this many cycles (enough
#: cold requests for a p95 with ten samples beyond it).
MIN_SWEEP_CYCLES = 7
#: Warm phases per ``seed_sweep`` cycle, timed together: one replay of
#: the cycle's cells from the store takes about 0.2 s, too short to time
#: steadily.
WARM_REPLAYS = 5
#: Graphs per timed segment of a ``seed_sweep`` cold phase (about 0.3 s).
SWEEP_SEGMENT_GRAPHS = 2
#: Cycles in the traced unit of ``seed_sweep`` (one is too short to
#: measure the tracing overhead).
TRACED_SWEEP_CYCLES = 3
#: Processes that recompute the served cells for the serve verdict.
VERIFY_WORKERS = 2

clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong answer)."""


@dataclass
class Outcome:
    values: Dict[str, float]
    attempted: int
    failed: int = 0
    #: Human-readable lines printed before the result line.
    notes: List[str] = field(default_factory=list)
    #: Names of failed correctness checks.
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str, count: int = 1) -> None:
        self.problems.append(problem)
        self.failed += count


# --------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------- #

def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def p50_p95(values: List[float]) -> Tuple[float, float]:
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    return statistics.median(values), cuts[18]


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: A measured time in seconds and the machine's slowdown while it ran.
Timed = Tuple[float, float]


def scaler(scaled: bool):
    """The divisor a measured time is scaled by, as a function of its
    slowdown: the slowdown itself, or 1 for the time as measured."""
    return (lambda slowdown: slowdown) if scaled else (lambda slowdown: 1.0)


def run_slowdown(units: List[Timed]) -> float:
    """The one slowdown every latency of a run is scaled by: the units'
    mean, weighted by their time.  The samples just around a request
    miss the bursts shorter than a second that make the slowest
    requests, so dividing each latency by its own unit's slowdown adds
    that error to the tail: p95 then spread 0.21 instead of 0.08 over
    seeds on ``seed_sweep``, and 0.08 instead of 0.06 on ``table1``."""
    return sum(t * f for t, f in units) / sum(t for t, _ in units)


def import_setup_times(speed: calibrate.Speedometer) -> List[Timed]:
    """Wall times from starting a fresh interpreter until ``import
    repro`` has finished (the first cell could start)."""
    times = []
    before = speed.sample()
    for _ in range(SETUP_LAUNCHES):
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, "-c", "import repro; print('ready', flush=True)"],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        took = clock() - t0
        _, err = proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("import repro failed: " + err.decode(errors="replace")[-500:])
        after = speed.sample()
        times.append((took, (before + after) / 2))
        before = after
    return times


def sample_graph(n: int, base: int, view_distinct: bool = True):
    """The graph ``repro table1 --n n --seed base`` would sample."""
    from repro.graphs import is_quotient_isomorphic, random_connected

    for s in range(base, base + 100):
        graph = random_connected(n, seed=s)
        if not view_distinct or is_quotient_isomorphic(graph):
            return graph
    raise BenchError(f"no view-distinct random_connected graph with n={n} near seed {base}")


def records_of(result) -> List[Dict]:
    return [dict(rec) for rec in result]


def check_pin(out: Outcome, workload: str, seed: int, records: List[Dict]) -> None:
    pinned = verdict.check_digest(workload, seed, records)
    if pinned is None:
        out.notes.append(f"digest {verdict.digest(records)[:16]} (seed {seed} not pinned)")
    elif pinned:
        out.notes.append("digest matches the pin")
    else:
        out.fail(f"digest {verdict.digest(records)[:16]} differs from the pin for seed {seed}")


def report(out: Outcome, values, speed: calibrate.Speedometer) -> None:
    """Set ``out.values`` to ``values(scaled=True)``, and note the
    reference samples and ``values(scaled=False)``."""
    out.values = values(True)
    out.notes.append(speed.note())
    out.notes.append("as measured: " + ", ".join(
        f"{name} {value:.6g}" for name, value in values(False).items()))


def fresh_dir(prefix: str) -> str:
    WORK_DIR.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK_DIR)


# --------------------------------------------------------------------- #
# Traced-run report
# --------------------------------------------------------------------- #

def layer_values(spans: List[Dict], counters, wall: float, untraced: float,
                 base: Optional[float] = None,
                 attributed: Optional[float] = None) -> Dict[str, float]:
    """Per-layer metrics from a span list.  ``other`` is ``base`` (by
    default ``wall``) minus the attributed time (by default, the
    top-level spans' total)."""
    v: Dict[str, float] = {name: 0 for name in metrics.PER_LAYER}
    seconds, calls = tracing.totals_by_name(spans)
    own = tracing.self_times(spans)
    by_layer = tracing.layer_self_times(spans)
    v["scenarios.compile_s"] = by_layer["scenarios"]
    v["scenarios.cells"] = counters["scenarios.cells"]
    v["graphs.build_calls"] = calls["graphs.build"]
    v["graphs.build_s"] = seconds["graphs.build"]
    v["graphs.quotient_check_s"] = seconds["graphs.quotient_check"]
    v["experiments.plan_self_s"] = sum(
        own[s["id"]] for s in spans if s["name"] == "experiments.execute_plan")
    v["experiments.key_s"] = seconds["experiments.cell_key_of"]
    v["experiments.retries"] = counters["experiments.retries"]
    v["experiments.quarantined"] = counters["experiments.quarantined"]
    batched, fallback = counters["batching.cells_batched"], counters["batching.cells_fallback"]
    v["batching.groups"] = counters["batching.groups"]
    v["batching.cells_batched"] = batched
    v["batching.cells_fallback"] = fallback
    v["batching.batched_ratio"] = batched / (batched + fallback) if batched + fallback else 0.0
    v["batching.run_s"] = seconds["batching.run_batch_group"]
    v["store.open_s"] = seconds["store.open"]
    v["store.get_calls"] = calls["store.get"]
    v["store.hits"] = counters["store.hits"]
    v["store.get_s"] = seconds["store.get"]
    v["store.put_calls"] = calls["store.put"]
    v["store.put_s"] = seconds["store.put"]
    v["store.bytes_written"] = counters["store.bytes_written"]
    for serial in range(1, 8):
        v[f"core.row{serial}_s"] = seconds[f"core.row{serial}"]
        v["core.solve_calls"] += calls[f"core.row{serial}"]
    v["core.setup_s"] = seconds["core.setup"]
    v["mapping.plan_calls"] = calls["mapping.plan_honest_run"] + calls["mapping.build_group_plan"]
    v["mapping.plan_s"] = seconds["mapping.plan_honest_run"] + seconds["mapping.build_group_plan"]
    v["sim.worlds"] = calls["sim.world_init"]
    v["sim.step_calls"] = calls["sim.step"]
    v["sim.step_s"] = seconds["sim.step"]
    v["sim.us_per_step"] = 1e6 * seconds["sim.step"] / calls["sim.step"] if calls["sim.step"] else 0.0
    v["sim.trace_record_calls"] = counters["sim.trace_record_calls"]
    v["metrics.record_calls"] = calls["metrics.record_from_report"]
    v["metrics.record_s"] = seconds["metrics.record_from_report"]
    v["gathering.oracle_calls"] = calls["gathering.oracle"]
    v["gathering.oracle_s"] = seconds["gathering.oracle"]
    for layer, secs in by_layer.items():
        v[f"{layer}.self_s"] = secs
    if attributed is None:
        attributed = tracing.root_time(spans)
    v["other.self_s"] = max(0.0, (wall if base is None else base) - attributed)
    v["trace.wall_s"] = wall
    v["trace.overhead_s"] = wall - untraced
    v["trace.overhead_pct"] = 100.0 * (wall - untraced) / untraced if untraced else 0.0
    v["trace.spans"] = len(spans)
    return v


def layer_notes(values: Dict[str, float], spans_path: str) -> List[str]:
    layers = {layer: values[f"{layer}.self_s"] for layer in tracing.LAYERS}
    layers["other"] = values["other.self_s"]
    top = tracing.top_layers(layers)
    total = sum(layers.values()) or 1.0
    return [
        "self time by layer: " + ", ".join(
            f"{name} {secs:.3f}s" for name, secs in
            sorted(layers.items(), key=lambda kv: -kv[1]) if secs > 0),
        "top layers: " + ", ".join(
            f"{name} ({100 * layers[name] / total:.0f}%)" for name in top),
        f"tracing overhead: {values['trace.overhead_s']:.3f}s "
        f"({values['trace.overhead_pct']:.1f}%)",
        f"spans: {spans_path}",
    ]


def traced_unit(run_unit, spans_name: str) -> Tuple[object, List[Dict], object, float, float, str]:
    """Run ``run_unit(tracer)`` untraced, traced, untraced; returns the
    traced unit's result, its spans and counters, its wall time, the mean
    untraced wall time, and the span file path."""
    t0 = clock()
    run_unit(None)
    before = clock() - t0
    tracer = tracing.Tracer().install()
    try:
        t0 = clock()
        result = run_unit(tracer)
        wall = clock() - t0
    finally:
        tracer.uninstall()
    t0 = clock()
    run_unit(None)
    after = clock() - t0
    spans = tracer.spans()
    WORK_DIR.mkdir(exist_ok=True)
    path = str(WORK_DIR / spans_name)
    tracer.write_jsonl(path)
    return result, spans, tracer.counters, wall, (before + after) / 2, path


# --------------------------------------------------------------------- #
# table1
# --------------------------------------------------------------------- #

def no_sample() -> float:
    """Stands in for :meth:`calibrate.Speedometer.sample` where the
    machine's speed is not measured."""
    return 1.0


@dataclass
class Plan:
    """One timed ``table1`` plan."""
    cold: bool
    cells: int
    latency: float
    #: Time spent sampling the graph, charged to the graph's cold plan.
    build_s: float
    slowdown: float


def table1_pass(names, offset: int, sample=no_sample):
    """One Table 1 reproduction per graph and strategy, as ``repro table1
    --n n --seed base --strategy s`` runs it: sample the graph, then run
    ``table1_grid(graph, [s], seed=base)`` (every applicable row at its
    ``f_max``) as one plan, serially, with no store.

    The first strategy on a graph meets it cold (just built, its lazy
    caches empty); the others reuse it warm.  ``offset`` rotates which
    strategy goes first, so over a run each is cold equally often.
    ``sample()`` is called before the first plan and after every plan.
    Returns the records and the plans.
    """
    from repro.scenarios import table1_grid

    strategies = inputs.TABLE1_STRATEGIES
    records: List[Dict] = []
    plans: List[Plan] = []
    before = sample()
    for n, base in names:
        t0 = clock()
        graph = sample_graph(n, base)
        build_s = clock() - t0
        for k in range(len(strategies)):
            plan = table1_grid(graph, [strategies[(offset + k) % len(strategies)]], seed=base)
            t0 = clock()
            result = plan.run()
            latency = clock() - t0
            after = sample()
            plans.append(Plan(k == 0, len(plan), latency, build_s if k == 0 else 0.0,
                              (before + after) / 2))
            before = after
            records.extend(records_of(result))
    return records, plans


def table1_passes(seed: int, seconds: float, min_passes: int, sample=no_sample):
    """Passes over fresh graphs until ``seconds`` have gone by, and at
    least ``min_passes``; yields each pass's :func:`table1_pass` result."""
    t_start = clock()
    for p, names in enumerate(inputs.table1_inputs(seed)):
        if p >= min_passes and clock() - t_start >= seconds:
            return
        yield table1_pass(names, p, sample)


def check_table1(out: Outcome, records: List[Dict]) -> None:
    """Every cell succeeded at ``f_max``."""
    out.attempted += len(records)
    # Quarantined cells carry success=False too.
    unsuccessful = sum(1 for r in records if not r.get("success"))
    if unsuccessful:
        out.fail(f"{unsuccessful} table1 cell(s) did not succeed at f_max", unsuccessful)


def table1(seed: int, seconds: float) -> Outcome:
    with calibrate.Speedometer(calibrate.pin_to_one_cpu()) as speed:
        return _table1(seed, seconds, speed)


def _table1(seed: int, seconds: float, speed: calibrate.Speedometer) -> Outcome:
    launches = import_setup_times(speed)
    out = Outcome(values={}, attempted=0)
    pinned: List[Dict] = []
    plans: List[Plan] = []
    passes = 0
    for records, pass_plans in table1_passes(seed, seconds, TABLE1_MIN_PASSES, speed.sample):
        check_table1(out, records)
        if passes < TABLE1_PIN_PASSES:
            pinned.extend(records)
        passes += 1
        plans.extend(pass_plans)
    check_pin(out, "table1", seed, pinned)
    peak = own_peak_rss_mb()
    slowdown = run_slowdown([(p.latency, p.slowdown) for p in plans])

    def values(scaled: bool) -> Dict[str, float]:
        k = scaler(scaled)
        busy = {cold: sum((p.latency + p.build_s) / k(p.slowdown) for p in plans if p.cold == cold)
                for cold in (True, False)}
        cells = {cold: sum(p.cells for p in plans if p.cold == cold) for cold in (True, False)}
        total_s = busy[True] + busy[False]
        p50, p95 = p50_p95([p.latency / k(slowdown) for p in plans])
        return {
            "setup_s": statistics.median(t / k(f) for t, f in launches),
            "peak_rss_mb": peak,
            "cells_per_s": (cells[True] + cells[False]) / total_s,
            "cold_cells_per_s": cells[True] / busy[True],
            "warm_cells_per_s": cells[False] / busy[False],
            "latency_p50_ms": 1000 * p50,
            "latency_p95_ms": 1000 * p95,
            "throughput_rps": len(plans) / total_s,
        }

    report(out, values, speed)
    out.notes.append(f"{passes} passes of {len(inputs.TABLE1_SIZES)} fresh graphs, "
                     f"{out.attempted} cells, {len(plans)} plan latency samples")
    return out


def table1_traced(seed: int) -> Outcome:
    def unit(tracer):
        return list(table1_passes(seed, 0.0, TRACED_TABLE1_PASSES))

    passes, spans, counters, wall, untraced, path = traced_unit(
        unit, f"spans-table1-{seed}.jsonl")
    values = layer_values(spans, counters, wall, untraced)
    out = Outcome(values=values, attempted=0)
    out.notes.extend(layer_notes(values, path))
    for records, *_ in passes:
        check_table1(out, records)
    return out


# --------------------------------------------------------------------- #
# seed_sweep
# --------------------------------------------------------------------- #

def sweep_requests(seed: int):
    """An iterator over the cycles' graphs, each cycle's sampled only
    when it is reached; and the cell seeds."""
    spec = inputs.sweep_inputs(seed)
    cycles = ([sample_graph(n, base) for n, base in names] for names in spec["cycles"])
    return cycles, spec["seeds"]


def sweep_phase(graphs, seeds, store_dir: str, sample=no_sample, per: int = 1):
    """Every (graph, strategy) seed sweep of the cycle against a freshly
    opened store handle.  ``sample()`` is called before the first sweep
    and after every ``per`` graphs.  Returns per-request records and
    latencies, and per segment of ``per`` graphs its time (the first's
    including the store's opening) with the slowdown from the samples
    around it."""
    from repro.analysis.store import RunStore
    from repro.scenarios import grid

    results: List[List[Dict]] = []
    latencies: List[float] = []
    segments: List[Timed] = []
    before = sample()
    t0 = clock()
    store = RunStore(store_dir)
    for start in range(0, len(graphs), per):
        for graph in graphs[start:start + per]:
            for strategy in inputs.SWEEP_STRATEGIES:
                t1 = clock()
                result = grid(rows=1, graphs=graph, strategies=strategy, seeds=seeds).run(store=store)
                latencies.append(clock() - t1)
                results.append(records_of(result))
        took = clock() - t0
        after = sample()
        segments.append((took, (before + after) / 2))
        before = after
        t0 = clock()
    return results, latencies, segments


@dataclass
class Cycle:
    cold: List[List[Dict]]
    #: Warm replays whose records were not byte-identical to ``cold``.
    warm_mismatches: int
    #: Per-request latencies of the cold phase.
    latencies: List[float]
    #: The timed segments of the cold phase and of all the warm replays.
    cold_segments: List[Timed]
    warm_segments: List[Timed]

    @property
    def cells(self) -> int:
        return sum(len(recs) for recs in self.cold)


def sweep_cycle(graphs, seeds, tracer: Optional[tracing.Tracer] = None,
                sample=no_sample) -> Cycle:
    """Cold phase into a fresh store, then ``WARM_REPLAYS`` warm phases,
    each from a newly opened handle on it.  Only the phases are timed;
    each warm replay is compared with the cold records between them.
    The cold phase is sampled every ``SWEEP_SEGMENT_GRAPHS`` graphs, a
    warm replay (about 0.25 s) as a whole."""
    store_dir = fresh_dir("sweep-")
    try:
        cold, latencies, cold_segments = sweep_phase(
            graphs, seeds, store_dir, sample, SWEEP_SEGMENT_GRAPHS)
        # Byte identity: the store must hand back exactly what it was given.
        cold_bytes = json.dumps(cold)
        warm_segments: List[Timed] = []
        mismatches = 0
        for _ in range(WARM_REPLAYS):
            warm, _, segments = sweep_phase(graphs, seeds, store_dir, sample, len(graphs))
            warm_segments.extend(segments)
            mismatches += json.dumps(warm) != cold_bytes
    finally:
        if tracer is not None:
            tracing.settle_stores(tracer)
        shutil.rmtree(store_dir, ignore_errors=True)
    return Cycle(cold, mismatches, latencies, cold_segments, warm_segments)


def check_sweep(out: Outcome, seed: int, cycle: Cycle, first: bool) -> None:
    """No cell was quarantined; every warm replay is byte-identical to
    the cold records; the first cycle's digest matches the pin."""
    flat = [rec for recs in cycle.cold for rec in recs]
    out.attempted += (1 + WARM_REPLAYS) * len(flat)
    failures = sum(1 for rec in flat if rec.get("failed"))
    if failures:
        out.fail(f"{failures} seed_sweep cell(s) quarantined", failures)
    if cycle.warm_mismatches:
        out.fail(f"{cycle.warm_mismatches} warm replay(s) differ from the cold records",
                 cycle.warm_mismatches * len(flat))
    if first:
        check_pin(out, "seed_sweep", seed, flat)


def seed_sweep(seed: int, seconds: float) -> Outcome:
    with calibrate.Speedometer(calibrate.pin_to_one_cpu()) as speed:
        return _seed_sweep(seed, seconds, speed)


def _seed_sweep(seed: int, seconds: float, speed: calibrate.Speedometer) -> Outcome:
    launches = import_setup_times(speed)
    cycles, seeds = sweep_requests(seed)
    out = Outcome(values={}, attempted=0)
    done: List[Cycle] = []
    t_start = clock()
    for graphs in cycles:
        if len(done) >= MIN_SWEEP_CYCLES and clock() - t_start >= seconds:
            break
        cycle = sweep_cycle(graphs, seeds, sample=speed.sample)
        check_sweep(out, seed, cycle, first=not done)
        done.append(cycle)
    peak = own_peak_rss_mb()

    slowdown = run_slowdown([s for c in done for s in c.cold_segments])

    def values(scaled: bool) -> Dict[str, float]:
        k = scaler(scaled)
        cold = [sum(t / k(f) for t, f in c.cold_segments) for c in done]
        warm = [sum(t / k(f) for t, f in c.warm_segments) for c in done]
        latencies = [t / k(slowdown) for c in done for t in c.latencies]
        p50, p95 = p50_p95(latencies)
        busy_s = sum(cold) + sum(warm)
        return {
            "setup_s": statistics.median(t / k(f) for t, f in launches),
            "peak_rss_mb": peak,
            "cells_per_s": out.attempted / busy_s,
            "cold_cells_per_s": statistics.median(c.cells / s for c, s in zip(done, cold)),
            "warm_cells_per_s": statistics.median(
                WARM_REPLAYS * c.cells / s for c, s in zip(done, warm)),
            "latency_p50_ms": 1000 * p50,
            "latency_p95_ms": 1000 * p95,
            "throughput_rps": (1 + WARM_REPLAYS) * len(latencies) / busy_s,
        }

    report(out, values, speed)
    out.notes.append(f"{len(done)} cycles of {len(graphs)} graphs x "
                     f"{len(inputs.SWEEP_STRATEGIES)} strategies x {len(seeds)} seeds "
                     f"= {done[0].cells} cells, written once and replayed {WARM_REPLAYS} times; "
                     f"{len(done) * len(done[0].latencies)} cold latency samples")
    return out


def seed_sweep_traced(seed: int) -> Outcome:
    cycles, seeds = sweep_requests(seed)
    graphs = [next(cycles) for _ in range(TRACED_SWEEP_CYCLES)]

    def unit(tracer):
        return [sweep_cycle(g, seeds, tracer) for g in graphs]

    done, spans, counters, wall, untraced, path = traced_unit(
        unit, f"spans-seed_sweep-{seed}.jsonl")
    values = layer_values(spans, counters, wall, untraced)
    out = Outcome(values=values, attempted=0)
    out.notes.extend(layer_notes(values, path))
    for i, cycle in enumerate(done):
        check_sweep(out, seed, cycle, first=i == 0)
    return out


# --------------------------------------------------------------------- #
# serve
# --------------------------------------------------------------------- #

_LISTENING = re.compile(rb"http://[^:\s]+:(\d+)")


def _server_preexec(cpu: Optional[int]):
    def preexec() -> None:
        # A benchmark started in the background inherits SIGINT ignored,
        # and a server started so would ignore the Ctrl-C ``stop`` sends.
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
    return preexec


@contextmanager
def off_cpu(cpu: Optional[int]):
    """Keep this process, and so the client threads, off ``cpu`` while
    the block runs, where it has another CPU to run on."""
    everywhere = calibrate.usable_cpus()
    others = [c for c in everywhere if c != cpu]
    moved = cpu is not None and bool(others)
    if moved:
        os.sched_setaffinity(0, others)
    try:
        yield
    finally:
        if moved:
            os.sched_setaffinity(0, everywhere)


class Server:
    """One ``repro serve --workers 2`` process with a fresh store, pinned
    to ``cpu`` if one is given."""

    def __init__(self, spans_path: Optional[str] = None, cpu: Optional[int] = None):
        self.store_dir = fresh_dir("serve-")
        self.log = open(self.store_dir + ".log", "wb")
        args = ["serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
                "--store", self.store_dir]
        if spans_path is None:
            cmd = [sys.executable, "-u", "-m", "repro"] + args
        else:
            cmd = [sys.executable, "-u", str(HERE / "serve_launcher.py"), spans_path] + args
        t0 = clock()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, stderr=self.log,
                                     preexec_fn=_server_preexec(cpu))
        try:
            self.port = self._read_port(deadline=t0 + 120)
            self._await_health(deadline=t0 + 120)
        except BaseException:
            self.stop()
            raise
        self.boot_s = clock() - t0

    def _read_port(self, deadline: float) -> int:
        buf = b""
        while clock() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buf += chunk
                match = _LISTENING.search(buf)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        raise BenchError("repro serve did not report its port: " + buf.decode(errors="replace"))

    def _await_health(self, deadline: float) -> None:
        while clock() < deadline:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise BenchError("repro serve never answered /healthz")

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            conn.request(method, path, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)
        if os.path.exists(self.store_dir + ".log"):
            os.remove(self.store_dir + ".log")


@dataclass
class Reply:
    client: int
    index: int
    kind: str
    status: int
    latency: float
    body: bytes


def drive(port: int, lists: List[List[Dict]], seconds: float, min_items: int,
          speed: Optional[calibrate.Speedometer] = None) -> Tuple[List[Reply], List[Timed]]:
    """A closed loop of one connection per request list.

    Clients meet at every dedup item and send it together.  At a meeting
    they stop once ``seconds`` have passed and each has sent at least
    ``min_items`` requests.  Returns the replies, and per block of
    requests between meetings its wall time and slowdown.  With
    ``speed``, a reference sample is taken before the clients start, at
    every meeting (no request is in flight then) and after they end;
    without, every slowdown is 1.0."""
    replies: List[Reply] = []
    lock = threading.Lock()
    stop = threading.Event()
    #: (start, end, slowdown) of each reference sample.
    marks: List[Tuple[float, float, float]] = []
    position = [0] * len(lists)

    def mark() -> None:
        t0 = clock()
        slowdown = speed.sample() if speed is not None else 1.0
        marks.append((t0, clock(), slowdown))

    mark()
    t_start = clock()

    def decide() -> None:
        mark()
        if min(position) >= min_items and clock() - t_start >= seconds:
            stop.set()

    barrier = threading.Barrier(len(lists), action=decide)

    def client(cid: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for i, item in enumerate(lists[cid]):
                position[cid] = i
                if item["kind"] == "dedup":
                    try:
                        barrier.wait(timeout=300)
                    except threading.BrokenBarrierError:
                        return
                    if stop.is_set():
                        return
                body = json.dumps(item["scenario"]).encode()
                t0 = clock()
                try:
                    conn.request("POST", "/run", body=body,
                                 headers={"Content-Type": "application/json"})
                    resp = conn.getresponse()
                    status, data = resp.status, resp.read()
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
                    status, data = 0, b""
                latency = clock() - t0
                with lock:
                    replies.append(Reply(cid, i, item["kind"], status, latency, data))
        finally:
            barrier.abort()
            conn.close()

    threads = [threading.Thread(target=client, args=(cid,), daemon=True)
               for cid in range(len(lists))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    mark()
    blocks = [(marks[b + 1][0] - marks[b][1], (marks[b][2] + marks[b + 1][2]) / 2)
              for b in range(len(marks) - 1)]
    return replies, blocks


def check_serve(out: Outcome, seed: int, lists, replies: List[Reply], stats: Dict) -> None:
    """Every reply is a 200 whose records equal a direct ``run_scenarios``
    of the same scenario; the server computed each distinct cold or dedup
    cell exactly once; the prefix digest matches the pin."""
    from repro.scenarios import Scenario, run_scenarios

    bad_status = [r for r in replies if r.status != 200]
    if bad_status:
        out.fail(f"{len(bad_status)} non-200 response(s)", len(bad_status))
    ok = [r for r in replies if r.status == 200]
    keys = [json.dumps(lists[r.client][r.index]["scenario"], sort_keys=True) for r in ok]
    distinct = list(dict.fromkeys(keys))
    # A table1-kind cell yields exactly one record.
    direct = run_scenarios([Scenario.from_dict(json.loads(k)) for k in distinct],
                           workers=VERIFY_WORKERS)
    expected = {k: verdict.canonical([rec]) for k, rec in zip(distinct, records_of(direct))}
    mismatched = sum(
        1 for r, k in zip(ok, keys)
        if verdict.canonical(json.loads(r.body)["records"]) != expected.get(k)
    )
    if mismatched:
        out.fail(f"{mismatched} response(s) differ from direct run_scenarios records", mismatched)
    computed_cells = {
        json.dumps(lists[r.client][r.index]["scenario"], sort_keys=True)
        for r in replies if r.kind != "warm"
    }
    counters = stats["counters"]
    if counters["computed"] != len(computed_cells):
        out.fail(f"server computed {counters['computed']} cells for "
                 f"{len(computed_cells)} distinct cold/dedup cells")
    if counters["busy_429"]:
        out.fail(f"{counters['busy_429']} request(s) refused with 429")
    ordered = sorted(replies, key=lambda r: (r.client, r.index))
    prefix = [rec for r in ordered if r.index < inputs.SERVE_PREFIX and r.status == 200
              for rec in json.loads(r.body)["records"]]
    check_pin(out, "serve", seed, prefix)


def serve(seed: int, seconds: float) -> Outcome:
    # The server computes under one GIL, so it runs on one CPU, the one
    # the reference job measures; the clients run on the others.
    cpu = calibrate.usable_cpus()[-1]
    with calibrate.Speedometer(cpu) as speed:
        return _serve(seed, seconds, speed, cpu)


def _serve(seed: int, seconds: float, speed: calibrate.Speedometer,
           cpu: Optional[int]) -> Outcome:
    lists = inputs.serve_inputs(seed)
    boots: List[Timed] = []
    with off_cpu(cpu):
        before = speed.sample()
        for _ in range(SERVE_BOOTS - 1):
            server = Server(cpu=cpu)
            server.stop()
            after = speed.sample()
            boots.append((server.boot_s, (before + after) / 2))
            before = after
        server = Server(cpu=cpu)
        try:
            # The last server is idle until the clients start.
            boots.append((server.boot_s, (before + speed.sample()) / 2))
            replies, blocks = drive(server.port, lists, seconds, inputs.SERVE_PREFIX, speed)
            stats = json.loads(server.request("GET", "/stats")[1])
            peak = server.peak_rss_mb()
        finally:
            server.stop()
    computed = stats["counters"]["computed"]
    wall = sum(w for w, _ in blocks)
    slowdown = run_slowdown(blocks)

    def values(scaled: bool) -> Dict[str, float]:
        k = scaler(scaled)
        # Latencies per kind, so the mix does not decide what they measure.
        cold = [r.latency / k(slowdown) for r in replies if r.kind == "cold"]
        warm = [r.latency / k(slowdown) for r in replies if r.kind == "warm"]
        p50, p95 = p50_p95(cold)
        return {
            "setup_s": statistics.median(t / k(f) for t, f in boots),
            "peak_rss_mb": peak,
            "cells_per_s": len(replies) * k(slowdown) / wall,
            "cold_cells_per_s": computed * k(slowdown) / wall,
            # Cells one connection gets per second at the median warm
            # latency: a warm request queued behind a cold one on the GIL
            # can take 50x its usual time, which would swamp a mean.
            "warm_cells_per_s": 1.0 / statistics.median(warm),
            "latency_p50_ms": 1000 * p50,
            "latency_p95_ms": 1000 * p95,
            "throughput_rps": len(replies) * k(slowdown) / wall,
        }

    out = Outcome(values={}, attempted=len(replies))
    report(out, values, speed)
    cold = [r for r in replies if r.kind == "cold"]
    kinds = {k: sum(1 for r in replies if r.kind == k) for k in ("cold", "warm", "dedup")}
    out.notes.append(f"{len(replies)} requests over {len(lists)} connections in {wall:.1f}s "
                     f"({kinds['cold']} cold, {kinds['warm']} warm, {kinds['dedup']} dedup); "
                     f"{len(cold)} cold latency samples; server counters {stats['counters']}")
    check_serve(out, seed, lists, replies, stats)
    return out


def serve_traced(seed: int) -> Outcome:
    """The request prefix against an untraced server, then against a
    server started through the tracing launcher."""
    lists = inputs.serve_inputs(seed)

    def run_once(spans_path: Optional[str]):
        server = Server(spans_path)
        try:
            replies, blocks = drive(server.port, lists, 0.0, inputs.SERVE_PREFIX)
            stats = json.loads(server.request("GET", "/stats")[1])
        finally:
            server.stop()
        return replies, sum(w for w, _ in blocks), stats

    _, untraced, _ = run_once(None)
    WORK_DIR.mkdir(exist_ok=True)
    path = str(WORK_DIR / f"spans-serve-{seed}.jsonl")
    replies, wall, stats = run_once(path)
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    with open(path + ".counters.json", encoding="utf-8") as fh:
        counters = Counter(json.load(fh))
    os.remove(path + ".counters.json")
    latency_total = sum(r.latency for r in replies)
    server_time = tracing.root_time(spans)
    # Time base: each connection's wall time.  Server spans attribute the
    # compute; request latency beyond it is the serve layer (HTTP, queue,
    # thread hand-off); client time outside requests is ``other``.
    values = layer_values(spans, counters, wall, untraced,
                          base=len(lists) * wall, attributed=latency_total)
    values["serve.self_s"] = max(0.0, latency_total - server_time)
    c = stats["counters"]
    values["serve.requests"] = c["requests"]
    values["serve.warm_hits"] = c["warm_hits"]
    values["serve.dedup_joined"] = c["dedup_joined"]
    values["serve.computed"] = c["computed"]
    values["serve.busy_429"] = c["busy_429"]
    values["serve.compute_s"] = sum(
        tracing.duration(s) for s in spans
        if s["parent"] is None and s["name"] == "experiments.execute_plan")
    values["serve.overhead_ms"] = 1000 * (latency_total - values["serve.compute_s"]) / len(replies)
    out = Outcome(values=values, attempted=len(replies))
    out.notes.extend(layer_notes(values, path))
    check_serve(out, seed, lists, replies, stats)
    return out


TIMED = {"table1": table1, "seed_sweep": seed_sweep, "serve": serve}
TRACED = {"table1": table1_traced, "seed_sweep": seed_sweep_traced, "serve": serve_traced}
