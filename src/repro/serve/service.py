"""The dispersion service: warm-store serving, single-flight, backpressure.

:class:`DispersionService` is the transport-free core of the serve
subsystem (the HTTP layer in :mod:`repro.serve.server` is a thin
routing shell around it).  One instance owns:

* an optional shared :class:`~repro.analysis.store.RunStore` — **warm
  cells are answered straight from disk with zero solver calls**;
* a single-flight table ``key -> Future`` — concurrent identical
  requests coalesce onto one in-flight computation whose result fans
  out to every waiter;
* a bounded submission queue feeding ``workers`` compute threads — a
  full queue is *explicit backpressure* (:class:`Busy` → HTTP 429 with
  ``Retry-After``), never an unbounded buffer;
* an :class:`~repro.serve.events.EventBroker` receiving the life cycle
  of every computed cell (``queued``/``started``/sampled ``round``
  progress/``result``/``quarantined``/``rejected``/``done``).

Byte-identity is inherited, not re-implemented: workers run cells
through the same :func:`~repro.analysis.experiments.execute_plan` →
``store.put`` path as the CLI, so records produced here are
byte-identical to CLI runs and land in the same store shards.  Failures
follow the executor's taxonomy: a :class:`~repro.errors.ReproError` is
a deterministic *rejection* (HTTP 422), a quarantined cell surfaces its
structured failure record as a 5xx body, and neither crashes the
server.

The wall clock appears **only** in the latency metrics path (EWMA cell
seconds driving ``Retry-After``) — records never see it.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.experiments import ExecutionPolicy, execute_plan
from ..analysis.faults import FaultPlan
from ..analysis.store import RunStore
from ..errors import ReproError
from ..scenarios import Scenario
from ..sim import progress
from .events import EventBroker

__all__ = ["Busy", "DispersionService", "RunOutcome"]


class Busy(Exception):
    """The submission queue is full — explicit backpressure.

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
    :class:`ReproError`; ``error`` holds type and message).
    """

    key: str
    status: str
    records: Optional[List[dict]] = None
    error: Optional[Dict[str, str]] = None


class _LockedStore:
    """A thread-safe facade over one shared :class:`RunStore` handle.

    The store's file format is append-atomic, but one *handle* (shared
    index, shard cursor) is built for one caller at a time; compute
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

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._store

    def stats(self) -> Dict:
        with self._lock:
            return self._store.stats()

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "hits": self._store.hits,
                "misses": self._store.misses,
                "puts": self._store.puts,
            }


class DispersionService:
    """Warm-store serving + single-flight dedup + bounded compute queue.

    Construct on the event loop thread; every public method except the
    worker internals must be called from that loop.
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
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if policy is not None and policy.timeout is not None:
            # Cells run serially in compute threads, and a thread cannot
            # be preempted: the executor enforces a timeout only when it
            # can kill a worker process.
            raise ValueError("a serve policy cannot carry a timeout")
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
        self._queue: "asyncio.Queue[Tuple[str, Scenario]]" = asyncio.Queue(
            maxsize=queue_size
        )
        self._inflight: Dict[str, "asyncio.Future[RunOutcome]"] = {}
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._worker_tasks = [
            asyncio.ensure_future(self._worker()) for _ in range(workers)
        ]
        #: EWMA of recent cell compute seconds — drives ``Retry-After``.
        #: Metrics only; never touches records.
        self._ewma_cell_seconds = 1.0

    # -- submission (event-loop side) ---------------------------------- #

    def submit(self, scenario: Scenario, key: str):
        """Route one scenario under its store ``key``: warm answer,
        joined in-flight, or enqueue.

        The caller keys the scenario (``scenario.key()``), off the event
        loop when keying builds the graph.  Returns ``("warm", key,
        records)`` for a store hit (zero solver calls), or ``(status,
        key, future)`` with ``status`` one of ``"joined"`` /
        ``"queued"``.  Raises :class:`Busy` when the bounded queue is
        full.
        """
        self.counters["requests"] += 1
        if self.store is not None:
            records = self.store.get(key)
            if records is not None:
                self.counters["warm_hits"] += 1
                return "warm", key, records
        future = self._inflight.get(key)
        if future is not None:
            self.counters["dedup_joined"] += 1
            return "joined", key, future
        future = self._loop.create_future()
        self._inflight[key] = future
        try:
            self._queue.put_nowait((key, scenario))
        except asyncio.QueueFull:
            del self._inflight[key]
            self.counters["busy_429"] += 1
            raise Busy(self.retry_after())
        self.counters["enqueued"] += 1
        self.broker.publish(key, "queued", {"key": key, "position": self._queue.qsize() - 1})
        return "queued", key, future

    def retry_after(self) -> int:
        """Advisory seconds until queue space is likely: the EWMA cell
        time scaled by the work ahead of a new submission."""
        backlog = self._queue.qsize() + len(self._inflight) + 1
        estimate = self._ewma_cell_seconds * backlog / self.workers
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
                "depth": self._queue.qsize(),
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
        """Cancel workers and release the thread pool."""
        for task in self._worker_tasks:
            task.cancel()
        for task in self._worker_tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # repro: allow-broad-except — shutdown boundary: a worker's pending failure must not abort teardown
                pass
        self._executor.shutdown(wait=False)

    # -- computation (worker side) ------------------------------------- #

    async def _worker(self) -> None:
        while True:
            key, scenario = await self._queue.get()
            self.broker.publish(key, "started", {"key": key})
            t0 = time.monotonic()  # repro: allow-wallclock — latency metrics (EWMA for Retry-After); records never see this value
            try:
                outcome = await self._loop.run_in_executor(
                    self._executor, self._compute, key, scenario
                )
            except Exception as exc:  # repro: allow-broad-except — fault boundary: an executor bug becomes a structured 500, never a dead worker
                outcome = RunOutcome(
                    key=key, status="rejected",
                    error={"type": type(exc).__name__, "message": str(exc)},
                )
            elapsed = time.monotonic() - t0  # repro: allow-wallclock — latency metrics (EWMA for Retry-After); records never see this value
            self._ewma_cell_seconds += 0.3 * (elapsed - self._ewma_cell_seconds)
            self._settle(key, outcome)
            self._queue.task_done()

    def _compute(self, key: str, scenario: Scenario) -> RunOutcome:
        """Run one cell in a compute thread — the exact CLI code path.

        ``execute_plan`` with this service's shared store performs the
        same resume check, the same solver invocation, and the same
        ``store.put`` as ``repro scenario`` / ``repro table1``; stored
        bytes are identical by construction.  A progress sink streams
        sampled rounds back to the event loop.
        """
        sink = self._make_sink(key)
        try:
            with progress.observe(sink):
                lists = execute_plan(
                    [scenario],
                    workers=None,
                    store=self.store,
                    resume=True,
                    policy=self.policy,
                    faults=self.faults,
                )
        except ReproError as exc:
            return RunOutcome(
                key=key, status="rejected",
                error={"type": type(exc).__name__, "message": str(exc)},
            )
        records = lists[0]
        if any(rec.get("failed") for rec in records):
            return RunOutcome(key=key, status="failed", records=records)
        return RunOutcome(key=key, status="ok", records=records)

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

    def _settle(self, key: str, outcome: RunOutcome) -> None:
        """Publish terminal events and fan the outcome out to waiters."""
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
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(outcome)
