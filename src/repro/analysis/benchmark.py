"""Engine microbenchmark: k robots × R rounds, optimized vs reference.

The scenarios exercise exactly the hot paths the optimized engine
touches — movement + node index, observation + snapshot views, message
boards, and sleep fast-forwarding — on ring and random graphs.  Each
scenario is run through both :class:`~repro.sim.world.World` (optimized)
and :class:`~repro.sim.reference.ReferenceWorld` (straight-line seed
engine) with identical seeds; besides wall-clock times the harness
compares a behavioural *fingerprint* (round counter, positions, trace
counters, move totals) so a speedup obtained by computing the wrong
thing is flagged immediately.

``repro bench`` (see :mod:`repro.cli`) and ``benchmarks/bench_engine.py``
both drive :func:`run_benchmark` and emit the machine-readable
``BENCH_engine.json`` that ``benchmarks/check_regression.py`` guards.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional

from ..graphs.generators import random_connected, ring
from ..sim.reference import ReferenceWorld
from ..sim.robot import Move, Sleep, Stay
from ..sim.world import World
from .store import SCHEMA_VERSION as STORE_SCHEMA_VERSION
from .tables import render_table

__all__ = [
    "SCENARIOS",
    "run_benchmark",
    "write_bench_json",
    "fingerprint",
    "format_report",
]


# --------------------------------------------------------------------- #
# Robot programs (deterministic in the scenario seed)
# --------------------------------------------------------------------- #

def _marcher(api):
    """March through port 1 forever — pure movement/index load."""
    move = Move(1)
    while True:
        yield move


def _random_walker(rng_seed):
    """Deterministic pseudo-random walk (LCG: no random-module overhead —
    the benchmark measures the engine, not the program)."""

    def program(api):
        h = (api.id * 1103515245 + rng_seed + 12345) & 0x7FFFFFFF
        stay = Stay()
        while True:
            h = (h * 1103515245 + 12345) & 0x7FFFFFFF
            deg = api.degree()
            if deg and h % 10 < 7:
                yield Move((h >> 4) % deg + 1)
            else:
                yield stay

    return program


def _observer(api):
    """Flip flags every round, observe live + round-start views at
    protocol-realistic decision points (every 4th round)."""
    rid = api.id
    flag = rid & 1
    move, stay = Move(1), Stay()
    rnd = 0
    while True:
        api.set_flag(flag)
        flag ^= 1
        if (rnd + rid) & 3 == 0:
            start = api.colocated_at_round_start()
            live = api.colocated()
            if len(live) < len(start) - 1:  # pragma: no cover - sanity anchor
                raise AssertionError("view cardinality mismatch")
        rnd += 1
        yield move if (rnd + rid) % 3 == 0 else stay


def _talker(api):
    """Post every round, read boards at pickup points — board load."""
    rid = api.id
    move, stay = Move(1), Stay()
    rnd = 0
    while True:
        api.say((rid, rnd))
        if (rnd + rid) % 3 == 0:
            api.messages()
            api.messages_prev()
        rnd += 1
        yield move if (rnd + rid) % 5 == 0 else stay


def _napper(api):
    """Alternate short naps with single moves — fast-forward load."""
    nap, move = Sleep(3), Move(1)
    while True:
        yield nap
        yield move


# --------------------------------------------------------------------- #
# Scenario registry
# --------------------------------------------------------------------- #

def _build(world_cls, graph, k: int, program_for: Callable[[int], Callable]):
    world = world_cls(graph)
    spread = max(1, graph.n // k) if k else 1
    for rid in range(1, k + 1):
        world.add_robot(rid, ((rid - 1) * spread) % graph.n, program_for(rid))
    return world


def _scenario_ring_march(world_cls, n, k, seed):
    return _build(world_cls, ring(n), k, lambda rid: _marcher)


def _scenario_ring_observe(world_cls, n, k, seed):
    return _build(world_cls, ring(n), k, lambda rid: _observer)


def _scenario_random_walk(world_cls, n, k, seed):
    graph = random_connected(n, seed=seed)
    return _build(world_cls, graph, k, lambda rid: _random_walker(seed))


def _scenario_messages(world_cls, n, k, seed):
    return _build(world_cls, ring(n), k, lambda rid: _talker)


def _scenario_sleepers(world_cls, n, k, seed):
    return _build(world_cls, ring(n), k, lambda rid: _napper)


#: name -> builder(world_cls, n, k, seed) -> World
SCENARIOS: Dict[str, Callable] = {
    "ring_march": _scenario_ring_march,
    "ring_observe": _scenario_ring_observe,
    "random_walk": _scenario_random_walk,
    "messages": _scenario_messages,
    "sleepers": _scenario_sleepers,
}


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #

def fingerprint(world) -> Dict:
    """Behavioural digest compared between engines (must be identical)."""
    return {
        "round": world.round,
        "positions": sorted(world.positions().items()),
        "counters": sorted(world.trace.counters.items()),
        "moves": sum(r.moves_made for r in world.robots.values()),
    }


def _time_run(build: Callable[[], object], rounds: int, repeats: int):
    """Best-of-``repeats`` wall time of stepping a fresh world ``rounds``
    times (fresh world per repeat: generators are single-use)."""
    best = None
    final = None
    for _ in range(max(1, repeats)):
        world = build()
        step = world.step
        t0 = time.perf_counter()
        for _ in range(rounds):
            step()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
        final = world
    return best, final


def run_benchmark(
    n: int = 96,
    k: int = 64,
    rounds: int = 500,
    seed: int = 0,
    repeats: int = 3,
    scenarios: Optional[List[str]] = None,
) -> Dict:
    """Run the engine microbenchmark; returns the BENCH_engine payload."""
    names = list(SCENARIOS) if scenarios is None else list(scenarios)
    results = []
    for name in names:
        builder = SCENARIOS[name]
        opt_s, opt_world = _time_run(
            lambda: builder(World, n, k, seed), rounds, repeats
        )
        ref_s, ref_world = _time_run(
            lambda: builder(ReferenceWorld, n, k, seed), rounds, repeats
        )
        fp_opt, fp_ref = fingerprint(opt_world), fingerprint(ref_world)
        results.append(
            {
                "scenario": name,
                "n": n,
                "k": k,
                "rounds": rounds,
                "seed": seed,
                "optimized_s": round(opt_s, 6),
                "reference_s": round(ref_s, 6),
                "speedup": round(ref_s / opt_s, 3) if opt_s > 0 else float("inf"),
                "identical": fp_opt == fp_ref,
            }
        )
    total_opt = sum(r["optimized_s"] for r in results)
    total_ref = sum(r["reference_s"] for r in results)
    return {
        "benchmark": "engine",
        "store_schema_version": STORE_SCHEMA_VERSION,
        "params": {"n": n, "k": k, "rounds": rounds, "seed": seed, "repeats": repeats},
        "env": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "scenarios": results,
        "total_optimized_s": round(total_opt, 6),
        "total_reference_s": round(total_ref, 6),
        "overall_speedup": round(total_ref / total_opt, 3) if total_opt else 0.0,
        "all_identical": all(r["identical"] for r in results),
    }


def format_report(payload: Dict) -> str:
    """Human-readable report for a :func:`run_benchmark` payload (shared
    by ``repro bench`` and ``benchmarks/bench_engine.py``)."""
    table = render_table(
        payload["scenarios"],
        columns=[
            "scenario", "n", "k", "rounds",
            "optimized_s", "reference_s", "speedup", "identical",
        ],
        title="Engine microbenchmark (optimized World vs ReferenceWorld)",
    )
    return (
        f"{table}\n"
        f"overall speedup   : {payload['overall_speedup']}x\n"
        f"behaviour matched : {payload['all_identical']}"
    )


def write_bench_json(payload: Dict, path: str) -> None:
    """Write the benchmark payload as pretty-printed JSON."""
    with open(path, "w") as fh:
        # Baselines keep the payload's deliberate section order
        # (params, scenarios, verdict); construction order is fixed in
        # code, and check_regression.py gates the files themselves.
        # repro: allow-unsorted-json — checked-in baseline section order
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")
