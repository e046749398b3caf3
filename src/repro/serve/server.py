"""HTTP routing + lifecycle for the dispersion service.

:class:`ServeApp` maps the API onto :class:`DispersionService`:

========  ====================  ==========================================
method    path                  behaviour
========  ====================  ==========================================
POST      ``/run``              one scenario; warm → 200 records, cold →
                                compute (``?wait=0`` → 202 + key), full
                                queue → 429 + ``Retry-After``
POST      ``/sweep``            scenario array (or ``{"scenarios": []}``);
                                per-cell warm/join/queue, partial accept
                                on a full queue
GET       ``/events/{key}``     Server-Sent Events: full history replay,
                                then live ``queued``/``started``/
                                ``round``/``result``/``quarantined``/
                                ``rejected``/``done``
GET       ``/result/{key}``     200 + records, 202 while computing, 404
GET       ``/stats``            store + queue + cache-hit counters
GET       ``/healthz``          liveness
========  ====================  ==========================================

Error mapping: malformed/invalid payloads → 400 (with the offending
``field`` when :class:`~repro.errors.ValidationError` names one),
deterministic :class:`~repro.errors.ReproError` rejections while keying
or running a cell → 422, quarantined cells → 500 with the structured
failure records as the body — the server never crashes on a failing
cell.

:class:`ServerThread` runs the whole stack on a background thread;
tests, benchmarks, the README tour and :func:`run_server`, the blocking
CLI entry point, all boot through it.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Tuple

from .. import __version__
from ..analysis.experiments import ExecutionPolicy
from ..analysis.faults import FaultPlan
from ..analysis.store import RunStore
from ..errors import ReproError, ValidationError
from ..scenarios import Scenario, ScenarioGrid
from .http import (
    HttpError,
    Request,
    json_bytes,
    read_request,
    response_bytes,
    sse_frame,
    sse_preamble,
)
from .service import Busy, DispersionService, RunOutcome

__all__ = ["ServeApp", "ServerThread", "run_server"]

Headers = Tuple[Tuple[str, str], ...]


class ServeApp:
    """The connection handler: HTTP keep-alive loop over one service."""

    def __init__(self, service: DispersionService):
        self.service = service

    async def handle(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away / server shutting down
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await self._send_error(writer, exc, keep_alive=False)
                return
            if request is None:
                return  # clean close between requests
            keep_alive = request.headers.get("connection", "").lower() != "close"
            try:
                if request.method == "GET" and request.path.startswith("/events/"):
                    await self._sse(request, writer)
                    return  # event streams close the connection
                status, body, extra = await self._route(request)
                writer.write(response_bytes(
                    status, json_bytes(body),
                    keep_alive=keep_alive, extra_headers=extra,
                ))
                await writer.drain()
            except HttpError as exc:
                await self._send_error(writer, exc, keep_alive=keep_alive)
            except Exception as exc:  # repro: allow-broad-except — HTTP boundary: a handler bug must answer 500, never kill the server
                error = HttpError(
                    500, f"internal error: {type(exc).__name__}: {exc}"
                )
                await self._send_error(writer, error, keep_alive=False)
                return
            if not keep_alive:
                return

    async def _send_error(self, writer, exc: HttpError, keep_alive: bool) -> None:
        extra: Headers = ()
        if exc.retry_after is not None:
            extra = (("Retry-After", str(exc.retry_after)),)
        writer.write(response_bytes(
            exc.status, json_bytes(exc.body()),
            keep_alive=keep_alive, extra_headers=extra,
        ))
        await writer.drain()

    # -- routing ------------------------------------------------------- #

    async def _route(self, request: Request) -> Tuple[int, Dict, Headers]:
        path, method = request.path, request.method
        if path == "/healthz":
            self._require(method, "GET", path)
            return 200, {"ok": True, "version": __version__}, ()
        if path == "/stats":
            self._require(method, "GET", path)
            return 200, self.service.stats(), ()
        if path.startswith("/result/"):
            self._require(method, "GET", path)
            return self._result(path[len("/result/"):])
        if path == "/run":
            self._require(method, "POST", path)
            return await self._run(request)
        if path == "/sweep":
            self._require(method, "POST", path)
            return await self._sweep(request)
        raise HttpError(404, f"no route for {path}")

    @staticmethod
    def _require(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise HttpError(405, f"{path} only accepts {expected}")

    def _result(self, key: str) -> Tuple[int, Dict, Headers]:
        state, payload = self.service.result_of(key)
        if state == "done":
            return 200, {"key": key, "status": "done", "records": payload}, ()
        if state == "inflight":
            return 202, {"key": key, "status": "computing"}, ()
        raise HttpError(404, f"unknown cell key {key}")

    @staticmethod
    def _parse_scenario(payload) -> Scenario:
        try:
            return Scenario.from_dict(payload)
        except ValidationError as exc:
            raise HttpError(400, str(exc), field=exc.field)
        except ReproError as exc:
            raise HttpError(400, str(exc))

    async def _run(self, request: Request) -> Tuple[int, Dict, Headers]:
        scenario = self._parse_scenario(request.json())
        try:
            key = await self._key(scenario)
        except ReproError as exc:
            raise self._unkeyable(exc)
        try:
            status, _, result = self.service.submit(scenario, key)
        except Busy as exc:
            raise HttpError(429, str(exc), retry_after=exc.retry_after)
        if status == "warm":
            return 200, {"key": key, "status": "warm", "records": result}, ()
        if not request.flag("wait", True):
            return 202, {"key": key, "status": status}, ()
        outcome: RunOutcome = await result
        return self._outcome_response(outcome)

    @staticmethod
    async def _key(scenario: Scenario) -> str:
        """``scenario.key()``, in a worker thread when keying resolves
        the graph (:attr:`Scenario.f_needs_graph`): building a large
        generator's graph can take seconds and would stall every other
        connection.  Other keys are computed inline: a thread hop for
        every key cost perfbench's ``serve`` a fifth of its warm cells
        per second (PERFORMANCE.md, "Keying in serve")."""
        if scenario.f_needs_graph:
            return await asyncio.to_thread(scenario.key)
        return scenario.key()

    @staticmethod
    def _unkeyable(exc: ReproError, field: Optional[str] = None) -> HttpError:
        """The 422 for a scenario rejected while it is keyed: keying
        ``f="max"`` for a tolerance or scaling cell builds the graph, and
        a generator may refuse its arguments (``ring`` needs ``n >= 3``).
        The same status as a rejection while computing, but nothing is
        queued or retried."""
        return HttpError(422, f"{type(exc).__name__}: {exc}", field=field)

    @staticmethod
    def _outcome_response(outcome: RunOutcome) -> Tuple[int, Dict, Headers]:
        if outcome.status == "ok":
            return 200, {
                "key": outcome.key, "status": "ok", "records": outcome.records,
            }, ()
        if outcome.status == "failed":
            # The executor quarantined the cell: its structured failure
            # records *are* the body — a 5xx with substance, not a crash.
            return 500, {
                "key": outcome.key, "status": "failed",
                "records": outcome.records,
            }, ()
        return 422, {
            "key": outcome.key, "status": "rejected", "error": outcome.error,
        }, ()

    async def _sweep(self, request: Request) -> Tuple[int, Dict, Headers]:
        payload = request.json()
        if isinstance(payload, dict):
            payload = payload.get("scenarios")
        if not isinstance(payload, list):
            raise HttpError(
                400, "scenarios: must be an array of scenario objects "
                "(bare, or under a 'scenarios' key)", field="scenarios",
            )
        try:
            grid = ScenarioGrid.from_dicts(payload)
        except ValidationError as exc:
            raise HttpError(400, str(exc), field=exc.field)
        except ReproError as exc:
            raise HttpError(400, str(exc))
        keys: List[str] = []
        for i, scenario in enumerate(grid):
            try:
                keys.append(await self._key(scenario))  # a 422 queues nothing
            except ReproError as exc:
                raise self._unkeyable(exc, field=f"scenarios[{i}]")
        submitted: List[Tuple[str, str, object]] = []
        busy: Optional[Busy] = None
        for scenario, key in zip(grid, keys):
            try:
                submitted.append(self.service.submit(scenario, key))
            except Busy as exc:
                busy = exc
                break
        if busy is not None:
            # Partial accept: already-submitted cells keep computing;
            # the client retries the remainder after Retry-After.
            return 429, {
                "error": str(busy), "status": 429,
                "accepted": [key for _, key, _ in submitted],
                "rejected": len(grid) - len(submitted),
            }, (("Retry-After", str(busy.retry_after)),)
        if not request.flag("wait", True):
            return 202, {
                "results": [
                    {"key": key, "status": status}
                    for status, key, _ in submitted
                ],
            }, ()
        results: List[Dict] = []
        all_ok = True
        for status, key, result in submitted:
            if status == "warm":
                results.append({"key": key, "status": "warm", "records": result})
                continue
            outcome: RunOutcome = await result
            entry: Dict = {"key": key, "status": outcome.status}
            if outcome.records is not None:
                entry["records"] = outcome.records
            if outcome.error is not None:
                entry["error"] = outcome.error
            all_ok = all_ok and outcome.status == "ok"
            results.append(entry)
        return 200, {"ok": all_ok, "results": results}, ()

    # -- SSE ----------------------------------------------------------- #

    async def _sse(self, request: Request, writer) -> None:
        key = request.path[len("/events/"):]
        if not key:
            raise HttpError(404, "missing cell key")
        service = self.service
        if not service.broker.known(key):
            state, payload = service.result_of(key)
            if state == "unknown":
                raise HttpError(404, f"unknown cell key {key}")
            if state == "done":
                # Warmed outside this server's lifetime (CLI or an
                # earlier process): synthesize the terminal transcript.
                writer.write(sse_preamble())
                writer.write(sse_frame("result", {"records": payload}, 0))
                writer.write(sse_frame("done", {"status": "ok"}, 1))
                await writer.drain()
                return
        history, queue = service.broker.subscribe(key)
        writer.write(sse_preamble())
        for event_id, name, data in history:
            writer.write(sse_frame(name, data, event_id))
        await writer.drain()
        if queue is None:
            return  # already done: history was the whole transcript
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                event_id, name, data = item
                writer.write(sse_frame(name, data, event_id))
                await writer.drain()
        finally:
            service.broker.unsubscribe(key, queue)


# --------------------------------------------------------------------- #
# Lifecycle
# --------------------------------------------------------------------- #

class ServerThread:
    """The full serve stack on a background thread (``repro serve``,
    tests, benchmarks, the README tour, and ``tools/load_serve.py`` all
    boot through this).

    ``port=0`` binds an ephemeral port; ``.port`` / ``.base_url`` are
    valid once :meth:`start` returns.  ``.service`` exposes the live
    :class:`DispersionService` for white-box assertions.
    """

    def __init__(
        self,
        store: Optional[RunStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_size: int = 64,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        round_every: int = 100,
    ):
        self.store = store
        self.workers = workers
        self.queue_size = queue_size
        self.policy = policy
        self.faults = faults
        self.round_every = round_every
        self.host = host
        self.port = port
        self.service: Optional[DispersionService] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, timeout: float = 10.0) -> "ServerThread":
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._thread_main, args=(ready,),
            name="repro-serve-loop", daemon=True,
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError(
                f"serve thread failed to start: {self._startup_error!r}"
            )
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _thread_main(self, ready: threading.Event) -> None:
        try:
            asyncio.run(self._amain(ready))
        except BaseException as exc:  # repro: allow-broad-except — thread boundary: surface startup failures to start() instead of dying silently
            self._startup_error = exc
        finally:
            ready.set()

    async def _amain(self, ready: threading.Event) -> None:
        service = DispersionService(
            store=self.store, workers=self.workers, queue_size=self.queue_size,
            policy=self.policy, faults=self.faults, round_every=self.round_every,
        )
        app = ServeApp(service)
        server = await asyncio.start_server(app.handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self.service = service
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            await service.aclose()


def run_server(
    host: str = "127.0.0.1",
    port: int = 8008,
    store: Optional[RunStore] = None,
    workers: int = 2,
    queue_size: int = 64,
    policy: Optional[ExecutionPolicy] = None,
    round_every: int = 100,
) -> int:
    """Blocking entry point behind ``repro serve`` (Ctrl-C to stop): a
    :class:`ServerThread`, waited on from the calling thread."""
    server = ServerThread(store=store, host=host, port=port, workers=workers,
                          queue_size=queue_size, policy=policy,
                          round_every=round_every).start()
    print(f"repro serve listening on {server.base_url}")
    print(f"  workers={workers} queue={queue_size} "
          f"store={store.path if store is not None else '(none: every request computes)'}")
    print("  POST /run /sweep · GET /events/{key} /result/{key} /stats /healthz",
          flush=True)
    try:
        server._thread.join()  # until Ctrl-C
    except KeyboardInterrupt:
        print("repro serve: stopped")
    finally:
        server.stop()
    return 0
