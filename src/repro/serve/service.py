"""The dispersion service: warm-store serving, single-flight, backpressure.

:class:`DispersionService` is the transport-free core of the serve
subsystem (the HTTP layer in :mod:`repro.serve.server` is a thin
routing shell around it).  One instance owns:

* an optional shared :class:`~repro.analysis.store.RunStore` — **warm
  cells are answered straight from disk with zero solver calls**;
* a single-flight table ``key -> Future`` — concurrent identical
  requests coalesce onto one in-flight computation whose result fans
  out to every waiter;
* a pool of ``workers`` compute threads, one task per cold cell; past
  ``queue_size`` cells waiting for a thread, a new cell is *explicit
  backpressure* (:class:`Busy` → HTTP 429 with ``Retry-After``), never
  an unbounded buffer;
* an :class:`~repro.serve.events.EventBroker` receiving the life cycle
  of every computed cell (``queued``/``started``/sampled ``round``
  progress/``result``/``quarantined``/``rejected``/``done``).

Byte-identity is inherited, not re-implemented: compute threads run
cells through the same :func:`~repro.analysis.experiments.execute_plan` →
``store.put`` path as the CLI, so records produced here are
byte-identical to CLI runs and land in the same store log.  Failures
follow the executor's taxonomy: a :class:`~repro.errors.ReproError` is
a deterministic *rejection* (HTTP 422), a quarantined cell surfaces its
structured failure record as a 5xx body, and neither crashes the
server.

The wall clock appears **only** in the latency metrics path (EWMA cell
seconds driving ``Retry-After``) — records never see it.
"""

from __future__ import annotations

import asyncio
import functools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.experiments import ExecutionPolicy, execute_plan
from ..analysis.faults import FaultPlan
from ..analysis.store import RunStore
from ..errors import ConfigurationError
from ..scenarios import Scenario
from ..sim import progress
from .events import EventBroker

__all__ = ["Busy", "DispersionService", "RunOutcome"]


class Busy(Exception):
    """Too many cells wait for a compute thread — explicit backpressure.

    Carries the advisory ``retry_after`` seconds the HTTP layer turns
    into a 429 ``Retry-After`` header.
    """

    def __init__(self, retry_after: int):
        super().__init__(f"submission queue is full; retry after ~{retry_after}s")
        self.retry_after = retry_after


@dataclass
class RunOutcome:
    """How one cell's computation ended (every waiter gets the same one).

    ``status`` is ``"ok"`` (records computed or replayed), ``"failed"``
    (the executor quarantined the cell — ``records`` holds its
    structured failure records), or ``"rejected"`` (a deterministic
    :class:`~repro.errors.ReproError`; ``error`` holds type and message).
    """

    key: str
    status: str
    records: Optional[List[dict]] = None
    error: Optional[Dict[str, str]] = None


class _LockedStore:
    """A thread-safe facade over one shared :class:`RunStore` handle.

    The store's file format is append-atomic, but one *handle* (shared
    index, log cursor) is built for one caller at a time; compute
    threads and the event loop therefore serialize on this lock.
    """

    def __init__(self, store: RunStore):
        self._store = store
        self._lock = threading.Lock()

    def get(self, key: str):
        with self._lock:
            return self._store.get(key)

    def put(self, key: str, records) -> None:
        with self._lock:
            self._store.put(key, records)

    def put_many(self, cells) -> None:
        with self._lock:
            self._store.put_many(cells)

    def stats(self) -> Dict:
        with self._lock:
            return self._store.stats()

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._store.hits,
                "misses": self._store.misses,
                "puts": self._store.puts,
                "dropped": self._store.dropped,
            }


class DispersionService:
    """Warm-store serving + single-flight dedup + a bounded compute pool,
    in which a cold cell's task future is its single-flight entry.

    Construct on the event loop thread; every public method must be
    called from that loop.
    """

    def __init__(
        self,
        store: Optional[RunStore] = None,
        workers: int = 2,
        queue_size: int = 64,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        round_every: int = 100,
    ):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if queue_size < 1:
            raise ConfigurationError("queue_size must be >= 1")
        if policy is not None and policy.timeout is not None:
            # Cells run serially in compute threads, and a thread cannot
            # be preempted: the executor enforces a timeout only when it
            # can kill a worker process.
            raise ConfigurationError("a serve policy cannot carry a timeout")
        self.store = _LockedStore(store) if store is not None else None
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.faults = faults
        self.workers = workers
        self.queue_size = queue_size
        #: Emit one ``round`` progress event every N completed rounds
        #: (round 0 always; terminal events are never sampled away).
        self.round_every = max(1, round_every)
        self.broker = EventBroker()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "warm_hits": 0,
            "dedup_joined": 0,
            "enqueued": 0,
            "computed": 0,
            "failed": 0,
            "rejected": 0,
            "busy_429": 0,
        }
        self._inflight: Dict[str, "asyncio.Future[RunOutcome]"] = {}
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        #: EWMA of recent cell compute seconds — drives ``Retry-After``.
        #: Metrics only; never touches records.  Compute threads update
        #: it under the lock.
        self._ewma_cell_seconds = 1.0
        self._ewma_lock = threading.Lock()

    # -- submission (event-loop side) ---------------------------------- #

    def submit(self, scenario: Scenario, key: str):
        """Route one scenario under its store ``key``: joined in-flight,
        warm answer, or a new task in the compute pool.

        The caller keys the scenario (``scenario.key()``), off the event
        loop when keying builds the graph.  Returns ``("warm", key,
        records)`` for a store hit (zero solver calls), or ``(status,
        key, future)`` with ``status`` one of ``"joined"`` /
        ``"queued"``.  Raises :class:`Busy` when ``queue_size`` cells
        already wait for a thread.

        In-flight cells are looked up first: a compute thread writes the
        store before its future settles, and a duplicate routed in that
        gap must join the computation, not read the store.
        """
        self.counters["requests"] += 1
        future = self._inflight.get(key)
        if future is not None:
            self.counters["dedup_joined"] += 1
            return "joined", key, future
        if self.store is not None:
            records = self.store.get(key)
            if records is not None:
                self.counters["warm_hits"] += 1
                return "warm", key, records
        waiting = self._waiting()
        if waiting >= self.queue_size:
            self.counters["busy_429"] += 1
            raise Busy(self.retry_after())
        self.counters["enqueued"] += 1
        self.broker.publish(key, "queued", {"key": key, "position": waiting})
        future = self._loop.run_in_executor(
            self._executor, self._compute, key, scenario
        )
        future.add_done_callback(functools.partial(self._settle, key))
        self._inflight[key] = future
        return "queued", key, future

    def _waiting(self) -> int:
        """Cells submitted to the compute pool that no thread has taken."""
        return max(0, len(self._inflight) - self.workers)

    def retry_after(self) -> int:
        """Advisory seconds until a compute thread is likely free for a
        new submission: the EWMA cell time scaled by the cells waiting
        ahead of it."""
        estimate = self._ewma_cell_seconds * (self._waiting() + 1) / self.workers
        return max(1, min(60, math.ceil(estimate)))

    def result_of(self, key: str):
        """``("done", records)`` from the store, ``("inflight", future)``
        while computing, or ``("unknown", None)``."""
        if self.store is not None:
            records = self.store.get(key)
            if records is not None:
                return "done", records
        future = self._inflight.get(key)
        if future is not None:
            return "inflight", future
        return "unknown", None

    def stats(self) -> Dict:
        """Store + queue + cache-hit counters (the ``/stats`` body)."""
        out: Dict = {
            "counters": dict(self.counters),
            "queue": {
                "depth": self._waiting(),
                "capacity": self.queue_size,
                "inflight": len(self._inflight),
                "workers": self.workers,
            },
            "events": self.broker.stats(),
            "retry_after": self.retry_after(),
        }
        if self.store is not None:
            out["store"] = self.store.stats()
            out["store"].update(self.store.counters())
        else:
            out["store"] = None
        return out

    async def aclose(self) -> None:
        """Release the compute pool; cells still waiting for a thread
        are cancelled."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- computation (compute-thread side) ----------------------------- #

    def _compute(self, key: str, scenario: Scenario) -> RunOutcome:
        """Run one cell in a compute thread — the exact CLI code path.

        ``execute_plan`` with this service's shared store performs the
        same resume check, the same solver invocation, and the same
        ``store.put`` as ``repro scenario`` / ``repro table1``; stored
        bytes are identical by construction.  ``started`` and sampled
        ``round`` events reach the event loop before the future settles,
        and any exception becomes the ``rejected`` outcome.
        """
        self._publish_threadsafe(key, "started", {"key": key})
        t0 = time.monotonic()  # repro: allow-wallclock — latency metrics (EWMA for Retry-After); records never see this value
        try:
            with progress.observe(self._make_sink(key)):
                lists = execute_plan(
                    [scenario],
                    workers=None,
                    store=self.store,
                    resume=True,
                    policy=self.policy,
                    faults=self.faults,
                )
        # The fault boundary: a deterministic ReproError, or an executor
        # bug, answers as a structured rejection, never a dead thread.
        except Exception as exc:  # repro: allow-broad-except — serve fault boundary
            outcome = RunOutcome(
                key=key, status="rejected",
                error={"type": type(exc).__name__, "message": str(exc)},
            )
        else:
            records = lists[0]
            failed = any(rec.get("failed") for rec in records)
            outcome = RunOutcome(key=key, status="failed" if failed else "ok",
                                 records=records)
        elapsed = time.monotonic() - t0  # repro: allow-wallclock — latency metrics (EWMA for Retry-After); records never see this value
        with self._ewma_lock:
            self._ewma_cell_seconds += 0.3 * (elapsed - self._ewma_cell_seconds)
        return outcome

    def _make_sink(self, key: str):
        every = self.round_every
        publish = self._publish_threadsafe

        def sink(world, completed_round: int) -> None:
            if completed_round % every:
                return
            publish(key, "round", {
                "round": completed_round,
                "activations": world.activations,
                "settled": progress.settled_count(world),
            })

        return sink

    def _publish_threadsafe(self, key: str, event: str, data: dict) -> None:
        try:
            self._loop.call_soon_threadsafe(self.broker.publish, key, event, data)
        except RuntimeError:
            pass  # loop already closed (shutdown mid-run): drop the event

    def _settle(self, key: str, future: "asyncio.Future[RunOutcome]") -> None:
        """The cell's done callback: leave the single-flight table and
        publish the terminal events (waiters read the future itself)."""
        del self._inflight[key]
        if future.cancelled():
            return  # cancelled at shutdown
        outcome = future.result()
        if outcome.status == "ok":
            self.counters["computed"] += 1
            self.broker.publish(key, "result", {"records": outcome.records})
        elif outcome.status == "failed":
            self.counters["failed"] += 1
            self.broker.publish(key, "quarantined", {"records": outcome.records})
        else:
            self.counters["rejected"] += 1
            self.broker.publish(key, "rejected", {"error": outcome.error})
        self.broker.publish(key, "done", {"status": outcome.status}, done=True)
