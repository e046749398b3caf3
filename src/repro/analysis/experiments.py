"""The plan executor behind every sweep.

A sweep is a :class:`~repro.scenarios.ScenarioGrid` — built with
:func:`repro.scenarios.grid` or one of its presets — and each of its
:class:`~repro.scenarios.Scenario` values is one cell:
:func:`execute_plan` runs the scenarios as they are and returns each
cell's flat records (see :mod:`repro.analysis.metrics`).  A scenario's
``kind`` picks its record shape, and :func:`_record` is the one place
that knows those shapes: the per-cell path and the batch engine both
call it, so their records cannot drift apart.

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
seed), and the scenario sent to a worker carries that spec instead of
the pickled graph.
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
cell; a :class:`~repro.errors.ReproError` propagates instead, as it
would per cell.  A group that ran is committed to the store in one
:meth:`~repro.analysis.store.RunStore.put_many`, outside that fallback
boundary.

Sweep plans and the run store
-----------------------------
The executor optionally carries a
:class:`~repro.analysis.store.RunStore`: completed cells are streamed to
the store **as they finish** (one pool task per cell in a sliding
window, results reassembled in submission order; a batch group's cells
finish together and are committed together), and on a re-run with
``resume=True`` every cell whose content key is already present is
answered from disk without touching a solver.  Record lists stay
byte-identical to a serial, store-less run in every mode — serial,
``workers>1``, resumed-from-partial-store, and fully warm (zero solver
calls).

Fault tolerance
---------------
:func:`execute_plan` is built to survive its own workers.  An
:class:`ExecutionPolicy` sets the knobs: per-cell wall-clock
``timeout`` (a hung cell's pool is killed and respawned, the hung cell
retried), bounded ``max_retries`` with exponential backoff, and
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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..byzantine.adversary import Adversary
from ..core.runner import Table1Row, get_row
from ..errors import ConfigurationError, ReproError, SweepFaultError
from ..graphs.port_labeled import PortLabeledGraph
from ..graphs.specs import graph_fingerprint, spec_of
from ..sim.report import RunReport
from .faults import FaultPlan, FaultSpec, inject
from .metrics import record_from_report
from .store import RunStore, cell_key

if TYPE_CHECKING:  # repro.scenarios imports this module
    from ..scenarios import Scenario

__all__ = [
    "DEFAULT_POLICY",
    "ExecutionPolicy",
    "cell_key_of",
    "execute_plan",
]

#: Record shapes a cell can produce (see ``Scenario.kind``).
KINDS = ("table1", "tolerance", "scaling")


#: The solver keyword of each scenario axis whose name differs from it.
_SOLVER_KWARGS = {"placement": "byz_placement", "rounds": "max_rounds"}


def _solver_extras(scenario: Scenario) -> Dict:
    """The scenario's non-default axes as solver keywords, so a default
    cell calls its solver exactly as before any axis existed."""
    return {_SOLVER_KWARGS.get(name, name): value
            for name, value in scenario.axes().items()}


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

def cell_key_of(scenario: Scenario, fingerprint=None) -> str:
    """Content-addressed store key for ``scenario``.

    The adversary descriptor is derived exactly as :func:`_cell_records`
    constructs the adversary (registry strategy name + run seed), so the
    key pins the full solver invocation.  ``f="max"`` keys as ``None``
    for the table1 kind and as the row's bound for the others
    (:meth:`~repro.scenarios.Scenario.resolved_f`).  ``fingerprint``
    lets callers that key many cells over one graph (the plan executor)
    hash the graph once instead of once per cell.
    """
    return cell_key(
        kind=scenario.kind,
        serial=scenario.serial,
        graph=graph_fingerprint(scenario.graph) if fingerprint is None else fingerprint,
        adversary=Adversary(scenario.strategy, seed=scenario.seed).descriptor(),
        f=scenario.resolved_f(),
        seed=scenario.seed,
        **scenario.axes(),
    )


def _cell_records(scenario: Scenario) -> List[Dict]:
    """Run one cell; module-level for pickling.  Returns the cell's
    record list (one record).

    A :class:`~repro.errors.ReproError` from the solver — the driver
    enforcing its theorem's bound — becomes a ``rejected`` record for
    the tolerance kind and propagates for the others.  Only the repro
    hierarchy counts as a rejection: an unexpected ``TypeError`` is an
    engine bug and must propagate, not masquerade as an out-of-tolerance
    result.
    """
    row = get_row(scenario.serial)
    graph = scenario.resolved_graph()
    f = row.f_max(graph) if scenario.f == "max" else scenario.f
    try:
        report = row.solver(
            graph, f=f, adversary=Adversary(scenario.strategy, seed=scenario.seed),
            seed=scenario.seed, **_solver_extras(scenario),
        )
    except ReproError as exc:
        if scenario.kind != "tolerance":
            raise
        rec = dict(
            serial=row.serial, theorem=row.theorem, f=f, n=graph.n,
            strategy=scenario.strategy, rejected=True, success=False,
            rounds_simulated=0, rounds_charged=0, rounds_total=0,
            n_violations=0, reason=type(exc).__name__,
        )
        if scenario.scheduler != "synchronous":
            # Keep the scheduler axis on rejections too (zero activations
            # were granted), so per-scheduler summaries group correctly.
            rec["scheduler"] = scenario.scheduler
            rec["activations"] = 0
        return [rec]
    return [_record(scenario.kind, row, graph, scenario.strategy, f, report)]


def _wire_cell(scenario: Scenario) -> Scenario:
    """The scenario as shipped to a worker: generator graphs go as specs
    (per-worker memo), except scaling cells, whose graphs each appear in
    exactly one cell (the memo cannot hit; CSR unpickling is cheaper
    than re-running a random family's sampling loop)."""
    if scenario.kind != "scaling" and isinstance(scenario.graph, PortLabeledGraph):
        spec = spec_of(scenario.graph)
        if spec is not None:
            return replace(scenario, graph=spec)
    return scenario


# --------------------------------------------------------------------- #
# Fault-tolerant execution
# --------------------------------------------------------------------- #

#: Retry delays double from ``ExecutionPolicy.backoff`` up to this many
#: seconds.
_MAX_BACKOFF = 2.0


@dataclass(frozen=True)
class ExecutionPolicy:
    """Fault-tolerance knobs for :func:`execute_plan`.

    ``timeout`` is a per-cell wall-clock budget in seconds; it is
    enforced only under ``workers > 1``, where a hung worker can be
    killed — the serial path has no preemption.  ``max_retries`` bounds
    how many times a failing cell is re-run (``max_retries + 1`` total
    attempts) with exponential backoff ``backoff · 2^(k-1)`` capped at
    2 seconds.  A cell that exhausts its budget is *quarantined* as a
    structured failure record unless ``strict=True``, which raises
    :class:`~repro.errors.SweepFaultError` instead.

    :class:`~repro.errors.ReproError` is never retried or quarantined —
    the repro hierarchy means deterministic rejection and always
    propagates (the tolerance kind records its own rejections before
    they ever reach the executor).
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.1
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
        if self.backoff < 0:
            raise ConfigurationError(f"backoff must be >= 0, got {self.backoff!r}")

    def delay(self, failures: int) -> float:
        """Seconds to back off before retry number ``failures`` (1-based)."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * 2 ** (failures - 1), _MAX_BACKOFF)


#: The executor's defaults: no timeout, two retries with a short
#: exponential backoff, quarantine instead of raising.
DEFAULT_POLICY = ExecutionPolicy()


def _run_cell(
    scenario: Scenario, spec: Optional[FaultSpec], attempt: int, serial: bool = False
) -> List[Dict]:
    """One attempt at one cell: fire its injected fault (if any) for
    dispatch ``attempt`` (1-based), then run it.  Module-level for
    pickling; the pool task of the parallel path.  A cell's exception
    reaches the caller, through its future in the parallel path."""
    inject(spec, attempt, serial=serial)
    return _cell_records(scenario)


def _failure_records(
    scenario: Scenario, key: str, reason: str, message: str, attempts: int
) -> List[Dict]:
    """The structured record list a quarantined cell contributes.

    Shaped like a (failed) flat record so tables, ``success_rate`` and
    JSON export all keep working; ``failed=True`` is the marker
    :meth:`~repro.scenarios.ResultSet.failures` selects on, and ``key``
    names the cell for resume/debugging even in store-less runs.
    """
    rec = dict(
        kind=scenario.kind, serial=scenario.serial, strategy=scenario.strategy,
        seed=scenario.seed, success=False, failed=True, reason=reason,
        error=message, attempts=attempts, key=key,
    )
    f = scenario.resolved_f()
    if f is not None:
        rec["f"] = f
    rec.update(scenario.axes())
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


def _pop_ready(queue: deque, now: float) -> Optional[int]:
    """Remove and return the first queued cell whose backoff has
    elapsed, or ``None`` if every queued cell is still backing off."""
    for idx, (cell, ready) in enumerate(queue):
        if ready <= now:
            del queue[idx]  # and return before the iteration resumes
            return cell
    return None


def _execute_serial(
    scenarios: Sequence[Scenario],
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
        for attempt in range(1, policy.max_retries + 2):
            try:
                records = _run_cell(scenarios[i], spec, attempt, serial=True)
            except ReproError:
                raise
            # The fault boundary: any other crash is retried, then
            # quarantined.
            # repro: allow-broad-except — executor fault boundary
            except Exception as exc:
                if attempt > policy.max_retries:
                    quarantine(i, type(exc).__name__, str(exc), attempt)
                else:
                    time.sleep(policy.delay(attempt))
            else:
                finish(i, records)
                break


def _execute_parallel(
    scenarios: Sequence[Scenario],
    pending: Sequence[int],
    keys: Sequence[str],
    workers: int,
    policy: ExecutionPolicy,
    faults: Optional[FaultPlan],
    finish: Callable[[int, List[Dict]], None],
    quarantine: Callable[[int, str, str, int], None],
) -> None:
    """Sliding-window pool execution that outlives its own workers.

    Each cell is one pool task, and at most ``max_workers`` are in
    flight at once, so every failure is attributable to a small, known
    suspect set:

    * a cell whose future carries an *exception* failed attributably —
      it is charged a retry;
    * a cell past its *deadline* hung — the pool is killed (there is no
      portable way to kill one worker), the hung cell is charged, and
      the other in-flight cells are resubmitted uncharged;
    * a ``BrokenProcessPool`` with exactly one unresolved cell charges
      that cell; with several, nobody is charged — the suspects are
      replayed one at a time (window of 1) so the next crash identifies
      its culprit exactly, and a cell in flight beside a segfault is
      never quarantined for it.

    Completed futures are always harvested before a kill/respawn, so
    finished work reaches the store even when the pool dies around it.
    On Ctrl-C, finished-but-unpersisted cells are flushed to the store
    before the interrupt re-raises (see ``KeyboardInterrupt`` handler).
    """
    queue: deque = deque((i, 0.0) for i in pending)  # (cell, ready time)
    max_workers = max(1, min(workers, len(pending)))
    attempts: Dict[int, int] = {i: 0 for i in pending}
    failures: Dict[int, int] = {i: 0 for i in pending}
    #: cells requeued after an unattributed pool break; while any exist
    #: the window narrows to 1 so the next break is attributable.
    suspects: Set[int] = set()
    inflight: Dict = {}  # future -> (cell, deadline)
    pool = ProcessPoolExecutor(max_workers=max_workers)
    clean = False

    def submit(i: int) -> None:
        spec = faults.for_key(keys[i]) if faults is not None else None
        fut = pool.submit(_run_cell, _wire_cell(scenarios[i]), spec,
                          attempts[i] + 1)  # may raise BrokenProcessPool
        attempts[i] += 1
        deadline = (
            time.monotonic() + policy.timeout  # repro: allow-wallclock — retry/timeout deadline, never recorded
            if policy.timeout else None
        )
        inflight[fut] = (i, deadline)

    def charge(i: int, reason: str, message: str) -> None:
        failures[i] += 1
        suspects.discard(i)
        if failures[i] > policy.max_retries:
            quarantine(i, reason, message, attempts[i])
        else:
            queue.appendleft((i, time.monotonic() + policy.delay(failures[i])))  # repro: allow-wallclock — retry/timeout deadline, never recorded

    def settle(fut) -> bool:
        """Apply one finished future.  A ``ReproError`` propagates; any
        other exception — the cell raised, or its task or result would
        not pickle — is charged a retry.  Returns False, leaving the
        future in flight for the pool-break handling, when the pool
        broke under it."""
        try:
            records = fut.result()
        except BrokenProcessPool:
            return False
        except ReproError:
            raise
        # repro: allow-broad-except — executor fault boundary
        except Exception as exc:
            charge(inflight.pop(fut)[0], type(exc).__name__, str(exc))
            return True
        i = inflight.pop(fut)[0]
        suspects.discard(i)
        finish(i, records)
        return True

    def harvest() -> None:
        """Settle every future that already finished (work done before a
        crash/kill must not be lost)."""
        for fut in [fut for fut in inflight if fut.done()]:
            settle(fut)

    def respawn() -> None:
        nonlocal pool
        inflight.clear()
        _terminate_pool(pool)
        pool = ProcessPoolExecutor(max_workers=max_workers)

    def absorb_break() -> None:
        """The pool died under us: save finished work, attribute or
        requeue the rest, respawn."""
        harvest()
        unresolved = [i for i, _ in inflight.values()]
        respawn()
        if len(unresolved) == 1:
            charge(unresolved[0], "WorkerCrash",
                   "worker process died (BrokenProcessPool)")
        else:
            for i in unresolved:
                suspects.add(i)
                queue.appendleft((i, 0.0))

    def expire(now: float) -> None:
        """Kill and respawn the pool if any cell blew its deadline; the
        hung cells are charged, the others resubmitted uncharged."""
        expired = [
            fut for fut, (_, deadline) in inflight.items()
            if deadline is not None and now >= deadline and not fut.done()
        ]
        if not expired:
            return
        harvest()
        victims = [inflight.pop(fut)[0] for fut in expired if fut in inflight]
        for i, _ in inflight.values():
            queue.appendleft((i, 0.0))
        respawn()
        for i in victims:
            charge(i, "TimeoutError",
                   f"cell exceeded the {policy.timeout}s wall-clock timeout")

    try:
        while queue or inflight:
            now = time.monotonic()  # repro: allow-wallclock — retry/timeout deadline, never recorded
            window = 1 if suspects else max_workers
            broke_on_submit = False
            while queue and len(inflight) < window:
                i = _pop_ready(queue, now)
                if i is None:
                    break
                try:
                    submit(i)
                except BrokenProcessPool:
                    queue.appendleft((i, 0.0))
                    absorb_break()
                    broke_on_submit = True
                    break
            if broke_on_submit:
                continue
            if not inflight:
                # Every queued cell is backing off; sleep to the earliest.
                time.sleep(max(0.0, min(r for _, r in queue) - now))
                continue
            waits = [dl - now for _, dl in inflight.values() if dl is not None]
            if queue and len(inflight) < window:
                waits.append(min(r for _, r in queue) - now)
            wait_for = max(0.01, min(waits)) if waits else None
            done, _ = wait(set(inflight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)
            if not done:
                expire(time.monotonic())  # repro: allow-wallclock — retry/timeout deadline, never recorded
            elif not all([settle(fut) for fut in done]):
                # A list, not a generator: every finished future is
                # settled before the break is absorbed.
                absorb_break()
        clean = True
    except KeyboardInterrupt:
        # Ctrl-C: flush cells that already finished — their work is
        # real, and dropping it would force recomputation on resume —
        # then shut the pool down hard and re-raise.
        try:
            for fut, (i, _) in list(inflight.items()):
                if fut.done() and not fut.cancelled() and fut.exception() is None:
                    finish(i, fut.result())
        except KeyboardInterrupt:
            pass  # a second Ctrl-C during the flush: stop flushing
        raise
    finally:
        if clean:
            pool.shutdown(wait=True, cancel_futures=True)
        else:
            _terminate_pool(pool)


def execute_plan(
    scenarios: Sequence[Scenario],
    workers: Optional[int] = None,
    store: Optional[RunStore] = None,
    resume: bool = True,
    policy: Optional[ExecutionPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> List[List[Dict]]:
    """Execute a sweep plan; returns one record list per scenario, in
    order (each scenario is one cell).

    With a ``store``, cells already present are answered from disk
    (``resume=True``) and every freshly computed cell is appended to the
    store **as it completes** (a batch group's cells complete together
    and are committed in one ``put_many``) — after a crash, the next run
    picks up from the last persisted commit.  ``workers > 1`` fans the
    pending cells out over a process pool, one task per cell; cells are
    persisted in *completion* order (a slow first cell cannot hold
    finished work out of the store) while the returned list is
    reassembled in submission order — record values and order are
    deterministic regardless of scheduling.  A cell repeated in the plan
    (the same key in several slots) is looked up, solved and stored
    once; each repeat gets its own copy of the first slot's records.

    Compatible pending cells — same graph fingerprint, solver serial,
    strategy, scheduler, and round budget, differing only in
    seed/``f``/placement — first go through the struct-of-arrays engine
    (:mod:`repro.analysis.batching`), stepping a whole group per round
    instead of one robot at a time.  Batched records are byte-identical
    to the per-cell path (pinned by ``tests/test_batch.py`` and
    ``tests/test_record_golden.py``); singletons, fault-injected cells,
    and anything that module rules out run per cell.  If the engine
    raises on a group, a ``RuntimeWarning`` names the group's size, its
    first cell key, and the exception, and the whole group is
    recomputed per cell; a :class:`~repro.errors.ReproError` (a graph
    its generator refuses) propagates, as it would per cell.

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
    results: List[Optional[List[Dict]]] = [None] * len(scenarios)
    keys: List[str] = []
    pending: List[int] = []
    #: graph id -> fingerprint: a rows x strategies grid shares one
    #: graph, so hash its CSR/spec once, not once per cell.
    fingerprints: Dict[int, object] = {}
    #: key -> the first slot holding it, and (slot, first slot) for each
    #: repeat: a repeated cell is solved and stored once.
    first: Dict[str, int] = {}
    repeats: List[Tuple[int, int]] = []
    for i, scenario in enumerate(scenarios):
        fp = fingerprints.get(id(scenario.graph))
        if fp is None:
            fp = graph_fingerprint(scenario.graph)
            fingerprints[id(scenario.graph)] = fp
        key = cell_key_of(scenario, fingerprint=fp)
        keys.append(key)
        j = first.setdefault(key, i)
        if j != i:
            repeats.append((i, j))
            continue
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
                f"cell {keys[i]} (kind={scenarios[i].kind!r}, "
                f"serial={scenarios[i].serial}, strategy={scenarios[i].strategy!r}) "
                f"failed {attempts} attempt(s): {reason}: {message}"
            )
        results[i] = _failure_records(scenarios[i], keys[i], reason, message, attempts)

    if len(pending) > 1:
        from .batching import plan_groups, run_batch_group

        groups, rest = plan_groups(
            scenarios, pending, keys,
            lambda i: fingerprints[id(scenarios[i].graph)], faults=faults,
        )
        leftovers: List[int] = []
        for group in groups:
            done: List[Tuple[int, List[Dict]]] = []
            try:
                leftovers.extend(run_batch_group(
                    scenarios, group, lambda i, recs: done.append((i, recs))))
            except ReproError:
                # A deterministic rejection (a graph its generator
                # refuses) is no engine fault: per cell it would raise
                # the same, since the graph resolves outside the
                # solver's rejection path.
                raise
            # Engine trouble must never fail a sweep the per-cell path
            # can finish: say so, then recompute the whole group per
            # cell.
            # repro: allow-broad-except — batch-engine fallback boundary
            except Exception as exc:
                warnings.warn(
                    f"batch engine fallback: group of {len(group)} cell(s) "
                    f"starting at cell {keys[group[0]]} raised "
                    f"{type(exc).__name__}: {exc}; recomputing it per cell",
                    RuntimeWarning, stacklevel=2,
                )
                leftovers.extend(group)
                continue
            # One commit per group, outside the boundary: a store error
            # is no engine fault and propagates as it would per cell.
            for i, recs in done:
                results[i] = recs
            if store is not None:
                store.put_many([(keys[i], recs) for i, recs in done])
        pending = sorted(rest + leftovers)

    if workers and workers > 1 and len(pending) > 1:
        _execute_parallel(scenarios, pending, keys, workers, policy,
                          faults, _finish, _quarantine)
    else:
        _execute_serial(scenarios, pending, keys, policy, faults,
                        _finish, _quarantine)
    for i, j in repeats:
        results[i] = [dict(rec) for rec in results[j]]
    return results
