"""The plan executor behind every sweep.

A sweep is a :class:`~repro.scenarios.ScenarioGrid` — built with
:func:`repro.scenarios.grid` or one of its presets — that compiles to a
list of :class:`SweepCell` values; :func:`execute_plan` runs them and
returns each cell's flat records (see :mod:`repro.analysis.metrics`).
A cell's ``kind`` picks its record shape, and :func:`_record` is the
one place that knows those shapes: the per-cell path and the batch
engine both call it, so their records cannot drift apart.

Parallel execution
------------------
``workers`` of ``None``/``0``/``1`` runs serially (the default, zero
overhead); larger values fan the plan's independent cells out over a
``concurrent.futures.ProcessPoolExecutor``.  Records come back in the
**same order with the same values** as a serial run: cells are mapped in
submission order and every cell is a pure function of picklable inputs
(graph, row serial, strategy, seed).

Rows are shipped to workers by *serial number* and re-resolved from the
:data:`~repro.core.runner.TABLE1` registry in the child process (row
objects hold lambdas, which do not pickle); scenarios only name registry
rows.

Graphs are shipped the same way: a generator-built graph carries a
:class:`~repro.graphs.specs.GraphSpec` (family name + bound arguments +
seed), and the job tuple carries that spec instead of the pickled graph.
Workers resolve specs through a per-process memo cache
(:func:`~repro.graphs.specs.resolve_spec`), so a 20-cell matrix over one
graph constructs it **once per worker**, not once per cell.  Generators
are deterministic in their arguments, so the resolved graph is ``==``
the parent's and records stay identical to a serial run.  Hand-built
graphs (no spec) are pickled whole.  Scaling cells always ship graphs:
each of their graphs appears in exactly one cell, so the memo cannot hit
and reconstructing (e.g. resampling a random family) in the worker would
cost more than unpickling the CSR bytes.

Batched execution
-----------------
Before the per-cell paths run, compatible pending cells go through the
struct-of-arrays engine, one group per step loop (grouping rules in
:mod:`repro.analysis.batching`).  Batched records are byte-identical to
per-cell ones.  If the engine raises on a group, a ``RuntimeWarning``
names the group and the exception, and the group is recomputed per
cell.

Sweep plans and the run store
-----------------------------
The executor optionally carries a
:class:`~repro.analysis.store.RunStore`: completed cells are streamed to
the store **as they finish** (chunked sliding-window submission, results
reassembled in submission order), and on a re-run with ``resume=True``
every cell whose content key is already present is answered from disk
without touching a solver.  Record lists stay byte-identical to a
serial, store-less run in every mode — serial, ``workers>1``,
resumed-from-partial-store, and fully warm (zero solver calls).

Fault tolerance
---------------
:func:`execute_plan` is built to survive its own workers.  An
:class:`ExecutionPolicy` sets the knobs: per-cell wall-clock
``timeout`` (a hung chunk's pool is killed and respawned, the hung
cells retried), bounded ``max_retries`` with exponential backoff, and
quarantine — a cell that keeps failing becomes a structured failure
record (``success=False, failed=True, reason=...``) instead of a
crashed sweep, unless ``strict=True`` opts back into raising
:class:`~repro.errors.SweepFaultError`.  A dead worker
(``BrokenProcessPool`` — OOM kill, segfault) respawns the pool;
completed cells are already safe in the store and surviving pending
cells are resubmitted.  :class:`~repro.errors.ReproError` is exempt
from all of this: the repro hierarchy means *deterministic rejection*
(f beyond a bound, an inapplicable graph) and propagates immediately —
retrying it cannot change the answer.  Failure records are **never**
written to the store, so a quarantined cell is recomputed by the next
run instead of poisoning the cache.

The failure paths are testable on demand: a
:class:`~repro.analysis.faults.FaultPlan` (``faults=``) injects
deterministic worker crashes, hangs, and transient errors into
designated cells by content key, and the chaos suite pins the signature
invariant — under any injected fault schedule, surviving records are
byte-identical to a clean serial run, and a resume after a crash
recomputes zero persisted cells.
"""

from __future__ import annotations

import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from ..byzantine.adversary import Adversary
from ..core.runner import Table1Row, get_row
from ..errors import ConfigurationError, ReproError, SweepFaultError
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.specs import GraphSpec, canonical_spec, graph_fingerprint, resolve_spec, spec_of
from ..sim.report import RunReport
from .faults import FaultPlan, FaultSpec, inject
from .metrics import record_from_report
from .store import RunStore, cell_key

__all__ = [
    "DEFAULT_POLICY",
    "ExecutionPolicy",
    "SweepCell",
    "cell_key_of",
    "execute_plan",
]

#: Record shapes a cell can produce (see ``SweepCell.kind``).
KINDS = ("table1", "tolerance", "scaling")

#: Default ``Executor.map`` chunksize for plan execution.  1 keeps cell
#: dispatch maximally load-balanced (the PR-1/2 behaviour); larger
#: chunks amortise IPC for big grids of cheap cells.  Never affects
#: record values or order.
DEFAULT_CHUNK = 1


def _solver_extras(placement: str, max_rounds: Optional[int], scheduler: str) -> Dict:
    """Non-default solver kwargs only, so the default call stays
    bit-for-bit the historical one."""
    extras: Dict = {}
    if placement != "lowest":
        extras["byz_placement"] = placement
    if max_rounds is not None:
        extras["max_rounds"] = max_rounds
    if scheduler != "synchronous":
        extras["scheduler"] = scheduler
    return extras


def _record(
    kind: str, row: Table1Row, graph: PortLabeledGraph, strategy: str,
    f: int, report: RunReport,
) -> Dict:
    """The flat record of one cell's run: the one place that knows each
    kind's record shape, key order included.  The per-cell path and the
    batch engine both build their records here."""
    if kind == "table1":
        return record_from_report(
            report, serial=row.serial, theorem=row.theorem,
            running_time=row.running_time, start=row.start, strong=row.strong,
            strategy=strategy, f=f, n=graph.n,
            paper_bound=row.paper_bound(graph, f),
        )
    if kind == "tolerance":
        return record_from_report(
            report, serial=row.serial, theorem=row.theorem, f=f, n=graph.n,
            strategy=strategy, rejected=False,
        )
    return record_from_report(  # scaling
        report, serial=row.serial, theorem=row.theorem, f=f, n=graph.n,
        m=graph.m, strategy=strategy, paper_bound=row.paper_bound(graph, f),
    )


# --------------------------------------------------------------------- #
# Process-parallel cell execution
# --------------------------------------------------------------------- #

#: What a job tuple's graph slot may hold.
GraphPayload = Union[PortLabeledGraph, GraphSpec]


def _graph_payload(graph: PortLabeledGraph) -> GraphPayload:
    """The cheapest picklable handle for ``graph``: its spec if it came
    from a registered generator, the graph itself otherwise."""
    spec = spec_of(graph)
    return graph if spec is None else spec


def _resolve_payload(payload: GraphPayload) -> PortLabeledGraph:
    """Worker-side: turn a job's graph slot back into a graph.

    Spec payloads hit the per-process memo cache in
    :mod:`repro.graphs.specs`, so repeated cells on the same graph skip
    reconstruction entirely.
    """
    if isinstance(payload, GraphSpec):
        return resolve_spec(payload)
    return payload


@dataclass(frozen=True)
class SweepCell:
    """One independent solver invocation in a sweep plan.

    ``kind`` selects the record shape (one of :data:`KINDS`):
    ``"table1"``, ``"tolerance"`` (rejection-aware), or ``"scaling"``
    (adds ``m``).  ``payload`` is the graph itself or its
    :class:`GraphSpec`; the content key is identical either way, so a
    cell computed serially (graph payload) is found by a later parallel
    run (spec payload) and vice versa.  ``f=None`` means "the row's
    tolerance bound on this graph" (deterministic given row + graph,
    hence safe to cache under ``None``).
    """

    kind: str
    serial: int
    payload: GraphPayload
    strategy: str
    seed: int
    f: Optional[int] = None
    #: Byzantine placement ("lowest"/"highest"/"random"), an optional
    #: round budget, and the activation scheduler's canonical spec (see
    #: :mod:`repro.sim.schedulers`).  Defaults reproduce the historical
    #: cells exactly and are omitted from the content key, so old stores
    #: stay warm.
    placement: str = "lowest"
    rounds: Optional[int] = None
    scheduler: str = "synchronous"


def _payload_fingerprint(payload: GraphPayload):
    if isinstance(payload, GraphSpec):
        return canonical_spec(payload)
    return graph_fingerprint(payload)


def cell_key_of(cell: SweepCell, fingerprint=None) -> str:
    """Content-addressed store key for ``cell``.

    The adversary descriptor is derived exactly as :func:`_cell_records`
    constructs the adversary (registry strategy name + run seed), so the
    key pins the full solver invocation.  ``fingerprint`` lets callers
    that key many cells over one graph (the plan executor) hash the
    payload once instead of once per cell.
    """
    return cell_key(
        kind=cell.kind,
        serial=cell.serial,
        graph=_payload_fingerprint(cell.payload) if fingerprint is None else fingerprint,
        adversary=Adversary(cell.strategy, seed=cell.seed).descriptor(),
        f=cell.f,
        seed=cell.seed,
        placement=cell.placement,
        rounds=cell.rounds,
        scheduler=cell.scheduler,
    )


def _cell_records(cell: SweepCell) -> List[Dict]:
    """Run one cell; module-level for pickling.  Returns the cell's
    record list (one record).

    A :class:`~repro.errors.ReproError` from the solver — the driver
    enforcing its theorem's bound — becomes a ``rejected`` record for
    the tolerance kind and propagates for the others.  Only the repro
    hierarchy counts as a rejection: an unexpected ``TypeError`` is an
    engine bug and must propagate, not masquerade as an out-of-tolerance
    result.
    """
    if cell.kind not in KINDS:
        raise ValueError(f"unknown cell kind {cell.kind!r}")
    row = get_row(cell.serial)
    graph = _resolve_payload(cell.payload)
    f = row.f_max(graph) if cell.f is None else cell.f
    try:
        report = row.solver(
            graph, f=f, adversary=Adversary(cell.strategy, seed=cell.seed),
            seed=cell.seed,
            **_solver_extras(cell.placement, cell.rounds, cell.scheduler),
        )
    except ReproError as exc:
        if cell.kind != "tolerance":
            raise
        rec = dict(
            serial=row.serial, theorem=row.theorem, f=f, n=graph.n,
            strategy=cell.strategy, rejected=True, success=False,
            rounds_simulated=0, rounds_charged=0, rounds_total=0,
            n_violations=0, reason=type(exc).__name__,
        )
        if cell.scheduler != "synchronous":
            # Keep the scheduler axis on rejections too (zero activations
            # were granted), so per-scheduler summaries group correctly.
            rec["scheduler"] = cell.scheduler
            rec["activations"] = 0
        return [rec]
    return [_record(cell.kind, row, graph, cell.strategy, f, report)]


def _wire_cell(cell: SweepCell) -> SweepCell:
    """The cell as shipped to a worker: generator graphs go as specs
    (per-worker memo), except scaling cells, whose graphs each appear in
    exactly one cell (the memo cannot hit; CSR unpickling is cheaper
    than re-running a random family's sampling loop)."""
    if cell.kind != "scaling" and isinstance(cell.payload, PortLabeledGraph):
        payload = _graph_payload(cell.payload)
        if payload is not cell.payload:
            return replace(cell, payload=payload)
    return cell


# --------------------------------------------------------------------- #
# Fault-tolerant execution
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs for :func:`execute_plan`.

    ``timeout`` is a per-cell wall-clock budget in seconds (a dispatch
    chunk's deadline is ``timeout × cells-in-chunk``); it is enforced
    only under ``workers > 1``, where a hung worker can be killed — the
    serial path has no preemption.  ``max_retries`` bounds how many
    times a failing cell is re-run (``max_retries + 1`` total attempts)
    with exponential backoff ``backoff · backoff_factor^(k-1)`` capped
    at ``max_backoff`` seconds.  A cell that exhausts its budget is
    *quarantined* as a structured failure record unless ``strict=True``,
    which raises :class:`~repro.errors.SweepFaultError` instead.

    :class:`~repro.errors.ReproError` is never retried or quarantined —
    the repro hierarchy means deterministic rejection and always
    propagates (the tolerance kind records its own rejections before
    they ever reach the executor).
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.1
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    strict: bool = False

    def __post_init__(self):
        if self.timeout is not None and not self.timeout > 0:
            raise ConfigurationError(
                f"timeout must be positive or None, got {self.timeout!r}"
            )
        if (isinstance(self.max_retries, bool)
                or not isinstance(self.max_retries, int) or self.max_retries < 0):
            raise ConfigurationError(
                f"max_retries must be a non-negative int, got {self.max_retries!r}"
            )
        if self.backoff < 0 or self.max_backoff < 0 or self.backoff_factor < 1:
            raise ConfigurationError(
                "backoff/max_backoff must be >= 0 and backoff_factor >= 1"
            )

    def delay(self, failures: int) -> float:
        """Seconds to back off before retry number ``failures`` (1-based)."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * self.backoff_factor ** (failures - 1),
                   self.max_backoff)


#: The executor's defaults: no timeout, two retries with a short
#: exponential backoff, quarantine instead of raising.
DEFAULT_POLICY = ExecutionPolicy()

#: Per-cell outcome statuses shipped back from workers.  Values (not
#: exceptions) cross the process boundary so one bad cell cannot poison
#: its chunk-mates' results.
_OK, _REJECT, _FAIL = "ok", "reject", "fail"


def _run_job(
    cell: SweepCell, spec: Optional[FaultSpec], attempt: int, serial: bool = False
) -> Tuple[str, object]:
    """One cell attempt → ``(status, payload)``.

    ``payload`` is the record list (``_OK``), the original
    :class:`ReproError` (``_REJECT`` — deterministic rejection, the
    caller re-raises it), or a picklable ``(type name, message)`` pair
    (``_FAIL`` — a retryable fault).
    """
    try:
        inject(spec, attempt, serial=serial)
        return (_OK, _cell_records(cell))
    except ReproError as exc:
        return (_REJECT, exc)
    # The worker fault boundary: any non-Repro crash must become a
    # picklable retryable-fault payload (retried, then quarantined),
    # never a worker death.
    # repro: allow-broad-except — executor fault boundary
    except Exception as exc:
        return (_FAIL, (type(exc).__name__, str(exc)))


def _run_chunk(jobs: List[Tuple[SweepCell, Optional[FaultSpec], int]]) -> List[Tuple[str, object]]:
    """Run one dispatch chunk in a worker; module-level for pickling.
    ``jobs`` pairs each wire-format cell with its injected fault (or
    ``None``) and its 1-based dispatch attempt number."""
    return [_run_job(cell, spec, attempt) for cell, spec, attempt in jobs]


def _failure_records(
    cell: SweepCell, key: str, reason: str, message: str, attempts: int
) -> List[Dict]:
    """The structured record list a quarantined cell contributes.

    Shaped like a (failed) flat record so tables, ``success_rate`` and
    JSON export all keep working; ``failed=True`` is the marker
    :meth:`~repro.scenarios.ResultSet.failures` selects on, and ``key``
    names the cell for resume/debugging even in store-less runs.
    """
    rec = dict(
        kind=cell.kind, serial=cell.serial, strategy=cell.strategy,
        seed=cell.seed, success=False, failed=True, reason=reason,
        error=message, attempts=attempts, key=key,
    )
    if cell.f is not None:
        rec["f"] = cell.f
    if cell.placement != "lowest":
        rec["placement"] = cell.placement
    if cell.rounds is not None:
        rec["rounds"] = cell.rounds
    if cell.scheduler != "synchronous":
        rec["scheduler"] = cell.scheduler
    return [rec]


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a process pool: terminate workers, then shut down.

    Used on timeout kills, pool breaks, and Ctrl-C — the executor never
    waits politely on a worker it has already decided is dead or hung.
    (``_processes`` is private executor API, but there is no public way
    to kill a running worker; the fallback is a plain shutdown.)
    """
    # Parenthesisation matters: `x or {}.values()` would bind .values()
    # to the fallback only and iterate the *keys* of a real _processes
    # dict — ints, whose .terminate() raises and used to be silently
    # swallowed by a broad except here, so workers were never killed.
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # dead or already-closed process
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    # A broken pool's shutdown can raise arbitrary executor internals;
    # teardown must proceed to the kill loop regardless.
    except Exception:  # pragma: no cover - broken pool  # repro: allow-broad-except
        pass
    for proc in procs:
        try:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        except (OSError, ValueError):  # pragma: no cover - already-reaped process
            pass


def _pop_ready(queue: deque, now: float):
    """Remove and return the first queued group whose backoff has
    elapsed, or ``None`` if every queued group is still backing off."""
    for idx in range(len(queue)):
        if queue[idx][1] <= now:
            group = queue[idx]
            del queue[idx]
            return group[0]
    return None


def _execute_serial(
    cells: Sequence[SweepCell],
    pending: Sequence[int],
    keys: Sequence[str],
    policy: ExecutionPolicy,
    faults: Optional[FaultPlan],
    finish: Callable[[int, List[Dict]], None],
    quarantine: Callable[[int, str, str, int], None],
) -> None:
    """In-process plan execution with the same retry/quarantine
    semantics as the pool path (timeouts excepted — no preemption)."""
    for i in pending:
        spec = faults.for_key(keys[i]) if faults is not None else None
        attempt = 0
        failures = 0
        while True:
            attempt += 1
            status, payload = _run_job(cells[i], spec, attempt, serial=True)
            if status == _OK:
                finish(i, payload)
                break
            if status == _REJECT:
                raise payload
            failures += 1
            if failures > policy.max_retries:
                quarantine(i, payload[0], payload[1], attempt)
                break
            time.sleep(policy.delay(failures))


def _execute_parallel(
    cells: Sequence[SweepCell],
    pending: Sequence[int],
    keys: Sequence[str],
    workers: int,
    chunk: int,
    policy: ExecutionPolicy,
    faults: Optional[FaultPlan],
    finish: Callable[[int, List[Dict]], None],
    quarantine: Callable[[int, str, str, int], None],
) -> None:
    """Sliding-window pool execution that outlives its own workers.

    At most ``max_workers`` chunks are in flight at once, so every
    failure is attributable to a small, known suspect set:

    * a chunk whose future carries an *exception* failed attributably —
      its cells are charged a retry;
    * a chunk past its *deadline* hung — the pool is killed (there is no
      portable way to kill one worker), the hung cells are charged, and
      undamaged in-flight chunks are resubmitted uncharged;
    * a ``BrokenProcessPool`` with exactly one unresolved chunk charges
      that chunk; with several, nobody is charged — the suspects are
      replayed one at a time (window of 1) so the next crash identifies
      its culprit exactly, and innocents are never quarantined for a
      chunk-mate's segfault.

    Completed futures are always harvested before a kill/respawn, so
    finished work reaches the store even when the pool dies around it.
    On Ctrl-C, finished-but-unpersisted chunks are flushed to the store
    before the interrupt re-raises (see ``KeyboardInterrupt`` handler).
    """
    size = max(1, chunk)
    queue: deque = deque(
        (list(pending[j:j + size]), 0.0) for j in range(0, len(pending), size)
    )
    max_workers = max(1, min(workers, len(queue)))
    attempts: Dict[int, int] = {i: 0 for i in pending}
    failures: Dict[int, int] = {i: 0 for i in pending}
    #: cells requeued after an unattributed pool break; while any exist
    #: the window narrows to 1 so the next break is attributable.
    suspects: Set[int] = set()
    done_cells: Set[int] = set()
    inflight: Dict = {}  # future -> (indices, deadline)
    pool = ProcessPoolExecutor(max_workers=max_workers)
    clean = False

    def spec_for(i: int) -> Optional[FaultSpec]:
        return faults.for_key(keys[i]) if faults is not None else None

    def submit(group: List[int]) -> None:
        jobs = [(_wire_cell(cells[i]), spec_for(i), attempts[i] + 1) for i in group]
        fut = pool.submit(_run_chunk, jobs)  # may raise BrokenProcessPool
        for i in group:
            attempts[i] += 1
        deadline = (
            time.monotonic() + policy.timeout * len(group)  # repro: allow-wallclock — retry/timeout deadline, never recorded
            if policy.timeout else None
        )
        inflight[fut] = (group, deadline)

    def charge(i: int, reason: str, message: str) -> None:
        failures[i] += 1
        suspects.discard(i)
        if failures[i] > policy.max_retries:
            quarantine(i, reason, message, attempts[i])
            done_cells.add(i)
        else:
            queue.appendleft(([i], time.monotonic() + policy.delay(failures[i])))  # repro: allow-wallclock — retry/timeout deadline, never recorded

    def apply_outcomes(group: List[int], outcomes) -> None:
        for i, (status, payload) in zip(group, outcomes):
            suspects.discard(i)
            if status == _OK:
                finish(i, payload)
                done_cells.add(i)
            elif status == _REJECT:
                raise payload
            else:
                charge(i, *payload)

    def harvest_finished() -> None:
        """Apply every future that completed with a real result (work
        finished before a crash/kill must not be lost)."""
        for fut, (group, _) in list(inflight.items()):
            if fut.done() and not fut.cancelled() and fut.exception() is None:
                del inflight[fut]
                apply_outcomes(group, fut.result())

    def absorb_break() -> None:
        """The pool died under us: save finished work, attribute or
        requeue the rest, respawn."""
        nonlocal pool
        harvest_finished()
        unresolved = [group for group, _ in inflight.values()]
        inflight.clear()
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=max_workers)
        if len(unresolved) == 1:
            for i in unresolved[0]:
                charge(i, "WorkerCrash",
                       "worker process died (BrokenProcessPool)")
        else:
            for group in unresolved:
                for i in group:
                    suspects.add(i)
                    queue.appendleft(([i], 0.0))

    def expire(now: float) -> bool:
        """Kill and respawn the pool if any chunk blew its deadline;
        the hung cells are charged, innocents resubmitted uncharged."""
        nonlocal pool
        expired = [
            fut for fut, (group, deadline) in inflight.items()
            if deadline is not None and now >= deadline and not fut.done()
        ]
        if not expired:
            return False
        harvest_finished()
        victims: List[int] = []
        for fut in expired:
            group, _ = inflight.pop(fut, (None, None))
            if group:
                victims.extend(group)
        for group, _ in inflight.values():
            queue.appendleft((group, 0.0))
        inflight.clear()
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=max_workers)
        for i in victims:
            charge(i, "TimeoutError",
                   f"cell exceeded the {policy.timeout}s wall-clock timeout")
        return True

    try:
        while queue or inflight:
            now = time.monotonic()  # repro: allow-wallclock — retry/timeout deadline, never recorded
            window = 1 if suspects else max_workers
            broke_on_submit = False
            while queue and len(inflight) < window:
                group = _pop_ready(queue, now)
                if group is None:
                    break
                try:
                    submit(group)
                except BrokenProcessPool:
                    queue.appendleft((group, 0.0))
                    absorb_break()
                    broke_on_submit = True
                    break
            if broke_on_submit:
                continue
            if not inflight:
                if not queue:
                    break
                # Every queued group is backing off; sleep to the earliest.
                time.sleep(max(0.0, min(r for _, r in queue) - now))
                continue
            waits = [dl - now for _, dl in inflight.values() if dl is not None]
            if queue and len(inflight) < window:
                waits.append(min(r for _, r in queue) - now)
            wait_for = max(0.01, min(waits)) if waits else None
            done, _ = wait(set(inflight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            now = time.monotonic()  # repro: allow-wallclock — retry/timeout deadline, never recorded
            if not done:
                expire(now)
                continue
            broke = False
            for fut in done:
                group, _ = inflight.pop(fut)
                try:
                    outcomes = fut.result()
                except BrokenProcessPool:
                    inflight[fut] = (group, None)  # absorb_break attributes it
                    broke = True
                    break
                except ReproError:
                    raise
                # The dispatch itself failed (e.g. its jobs or result
                # would not pickle): arbitrary by nature, attributable
                # to this chunk, and converted to retry/quarantine.
                # repro: allow-broad-except — executor fault boundary
                except Exception as exc:
                    for i in group:
                        charge(i, type(exc).__name__, str(exc))
                else:
                    apply_outcomes(group, outcomes)
            if broke:
                absorb_break()
        clean = True
    except KeyboardInterrupt:
        # Ctrl-C: flush chunks that already finished — their work is
        # real, and dropping it would force recomputation on resume —
        # then shut the pool down hard and re-raise.
        try:
            for fut, (group, _) in list(inflight.items()):
                if fut.done() and not fut.cancelled() and fut.exception() is None:
                    for i, (status, payload) in zip(group, fut.result()):
                        if status == _OK and i not in done_cells:
                            finish(i, payload)
        except KeyboardInterrupt:
            pass  # a second Ctrl-C during the flush: stop flushing
        raise
    finally:
        if clean:
            pool.shutdown(wait=True, cancel_futures=True)
        else:
            _terminate_pool(pool)


def execute_plan(
    cells: Sequence[SweepCell],
    workers: Optional[int] = None,
    store: Optional[RunStore] = None,
    resume: bool = True,
    chunk: int = DEFAULT_CHUNK,
    policy: Optional[ExecutionPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> List[List[Dict]]:
    """Execute a sweep plan; returns one record list per cell, in order.

    With a ``store``, cells already present are answered from disk
    (``resume=True``) and every freshly computed cell is appended to the
    store **as it completes** — after a crash, the next run picks up
    from the last persisted cell.  ``workers > 1`` fans the pending
    cells out over a process pool in submission chunks of ``chunk``;
    chunks are persisted in *completion* order (a slow first cell cannot
    hold finished work out of the store) while the returned list is
    reassembled in submission order — record values and order are
    deterministic regardless of scheduling.

    Compatible pending cells — same graph fingerprint, solver serial,
    strategy, scheduler, and round budget, differing only in
    seed/``f``/placement — first go through the struct-of-arrays engine
    (:mod:`repro.sim.batch`), stepping a whole group per round instead
    of one robot at a time.  Batched records are byte-identical to the
    per-cell path (pinned by ``tests/test_batch.py`` and
    ``tests/test_record_golden.py``); singletons, fault-injected cells,
    and anything :mod:`repro.analysis.batching` rules out run per cell.
    If the engine raises on a group, a ``RuntimeWarning`` names the
    group's size, its first cell key, and the exception, and the whole
    group is recomputed per cell.

    ``policy`` (default :data:`DEFAULT_POLICY`) governs the failure
    paths: per-cell timeouts, bounded retries with backoff, pool respawn
    on worker death, and quarantine-vs-``strict`` raising — see
    :class:`ExecutionPolicy` and the module docstring.  A quarantined
    cell's slot holds its structured failure record list (``failed=True``
    with the cell's content ``key``), which is returned but never stored.
    ``faults`` injects a deterministic :class:`~repro.analysis.faults.
    FaultPlan` for chaos testing.  Cell keys are computed store or no
    store, so retry and quarantine reporting can always name the failing
    cell by content key.
    """
    policy = DEFAULT_POLICY if policy is None else policy
    results: List[Optional[List[Dict]]] = [None] * len(cells)
    keys: List[str] = []
    pending: List[int] = []
    #: payload id -> fingerprint: a rows x strategies grid shares one
    #: graph, so hash its CSR/spec once, not once per cell.
    fingerprints: Dict[int, object] = {}
    for i, cell in enumerate(cells):
        fp = fingerprints.get(id(cell.payload))
        if fp is None:
            fp = _payload_fingerprint(cell.payload)
            fingerprints[id(cell.payload)] = fp
        keys.append(cell_key_of(cell, fingerprint=fp))
        if store is not None and resume:
            cached = store.get(keys[i])
            if cached is not None:
                results[i] = cached
                continue
        pending.append(i)

    def _finish(i: int, recs: List[Dict]) -> None:
        results[i] = recs
        if store is not None:
            store.put(keys[i], recs)

    def _quarantine(i: int, reason: str, message: str, attempts: int) -> None:
        if policy.strict:
            raise SweepFaultError(
                f"cell {keys[i]} (kind={cells[i].kind!r}, "
                f"serial={cells[i].serial}, strategy={cells[i].strategy!r}) "
                f"failed {attempts} attempt(s): {reason}: {message}"
            )
        results[i] = _failure_records(cells[i], keys[i], reason, message, attempts)

    if len(pending) > 1:
        from .batching import plan_groups, run_batch_group

        groups, rest = plan_groups(
            cells, pending, keys,
            lambda i: fingerprints[id(cells[i].payload)], faults=faults,
        )
        leftovers: List[int] = []
        for group in groups:
            try:
                leftovers.extend(run_batch_group(cells, group, _finish))
            # Engine trouble must never fail a sweep the per-cell path
            # can finish: say so, then recompute the whole group per
            # cell (where ReproErrors land on their per-kind paths —
            # propagate for table1, reject for tolerance).
            # repro: allow-broad-except — batch-engine fallback boundary
            except Exception as exc:
                warnings.warn(
                    f"batch engine fallback: group of {len(group)} cell(s) "
                    f"starting at cell {keys[group[0]]} raised "
                    f"{type(exc).__name__}: {exc}; recomputing it per cell",
                    RuntimeWarning, stacklevel=2,
                )
                leftovers.extend(group)
        pending = sorted(rest + leftovers)

    size = max(1, chunk)
    n_groups = -(-len(pending) // size)
    if workers and workers > 1 and n_groups > 1:
        _execute_parallel(cells, pending, keys, workers, chunk, policy,
                          faults, _finish, _quarantine)
    else:
        _execute_serial(cells, pending, keys, policy, faults,
                        _finish, _quarantine)
    return results
