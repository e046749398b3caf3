"""Tests for the serve subsystem (dispersion-as-a-service).

Pins the tentpole guarantees end to end against a real server on an
ephemeral port:

* warm requests perform **zero solver calls** (spy on the service's
  ``execute_plan``);
* N concurrent identical cold requests compute the cell **exactly
  once** (single-flight dedup);
* SSE event framing is byte-pinned against a golden transcript;
* a full submission queue answers **429 + Retry-After**;
* an injected worker crash surfaces as a **structured 500** while the
  server keeps serving;
* records written through the server are **byte-identical** — same
  shard files, same bytes — to a CLI run of the same scenarios;
* untrusted payloads come back as 400s naming the offending field
  (the hardened ``Scenario.from_dict``), and raw request bytes either
  parse or get a 4xx/5xx, never an unhandled exception.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.scenarios as scenarios_module
import repro.serve.service as service_module
from repro.analysis.experiments import ExecutionPolicy
from repro.analysis.faults import FaultPlan, FaultSpec
from repro.analysis.store import RunStore
from repro.cli import build_parser
from repro.errors import ConfigurationError, ReproError, ValidationError
from repro.graphs import PortLabeledGraph
from repro.scenarios import Scenario, ScenarioGrid
from repro.serve import ServeApp, ServerThread
from repro.serve.http import HttpError, Request, read_request

DATA = Path(__file__).parent / "data"

#: The scenario every serve test speaks (tiny but a real solver run).
SCENARIO = {
    "algorithm": 4,
    "graph": {"family": "random_connected", "args": {"n": 7, "seed": 0}},
    "strategy": "squatter",
    "f": "max",
    "seed": 0,
}


def _scenario(seed: int = 0) -> dict:
    return dict(SCENARIO, seed=seed)


def _request(server, method, path, payload=None, timeout=60):
    """One request; returns (status, parsed body, response headers)."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read()), dict(response.getheaders())
    finally:
        conn.close()


def _sse_bytes(server, key: str) -> bytes:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
    try:
        conn.request("GET", f"/events/{key}")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        return response.read()
    finally:
        conn.close()


class TestWarmServing:
    def test_warm_request_zero_solver_calls(self, tmp_path, monkeypatch):
        """A store warmed by the CLI path answers with zero solver calls."""
        store_dir = str(tmp_path / "store")
        scenario = Scenario.from_dict(SCENARIO)
        cli_records = list(scenario.run(store=RunStore(store_dir)))

        calls = []
        real = service_module.execute_plan

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "execute_plan", spy)
        with ServerThread(store=RunStore(store_dir)) as server:
            status, body, _ = _request(server, "POST", "/run", SCENARIO)
        assert status == 200
        assert body["status"] == "warm"
        assert body["key"] == scenario.key()
        assert body["records"] == cli_records
        assert calls == [], "warm request must not invoke the executor"

    def test_cli_warms_server_and_server_warms_cli(self, tmp_path):
        """One store, two front-ends: each sees the other's cells."""
        store_dir = str(tmp_path / "store")
        with ServerThread(store=RunStore(store_dir)) as server:
            status, cold, _ = _request(server, "POST", "/run", SCENARIO)
            assert status == 200 and cold["status"] == "ok"
        # Server wrote the cell; the CLI path must replay it from disk.
        store = RunStore(store_dir)
        records = store.get(Scenario.from_dict(SCENARIO).key())
        assert records == cold["records"]
        assert store.hits == 1


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(self, tmp_path, monkeypatch):
        clients = 6
        calls = []
        release = threading.Event()
        real = service_module.execute_plan

        def gated(*args, **kwargs):
            calls.append(1)
            assert release.wait(30), "test gate never released"
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "execute_plan", gated)
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            results = []

            def post():
                results.append(_request(server, "POST", "/run", SCENARIO))

            threads = [threading.Thread(target=post) for _ in range(clients)]
            for thread in threads:
                thread.start()
            # Wait until every request has been routed (joined or queued),
            # then let the single computation proceed.
            service = server.service
            for _ in range(3000):
                if service.counters["requests"] >= clients:
                    break
                threading.Event().wait(0.01)
            assert service.counters["requests"] >= clients
            release.set()
            for thread in threads:
                thread.join(timeout=60)

            assert len(calls) == 1, "single-flight must compute the cell once"
            assert len(results) == clients
            reference = results[0][1]["records"]
            for status, body, _ in results:
                assert status == 200
                assert body["records"] == reference
            assert service.counters["dedup_joined"] == clients - 1
            assert service.counters["computed"] == 1


class TestSSE:
    def test_event_stream_matches_golden_transcript(self, tmp_path):
        """The full SSE transcript is byte-identical run to run."""
        with ServerThread(store=RunStore(str(tmp_path / "store")),
                          workers=1, round_every=500) as server:
            status, body, _ = _request(server, "POST", "/run", SCENARIO)
            assert status == 200
            stream = _sse_bytes(server, body["key"])
        golden = (DATA / "serve_sse_golden.txt").read_bytes()
        assert stream == golden

    def test_warm_key_synthesizes_terminal_stream(self, tmp_path):
        """A key warmed before this server existed still streams."""
        store_dir = str(tmp_path / "store")
        scenario = Scenario.from_dict(SCENARIO)
        records = list(scenario.run(store=RunStore(store_dir)))
        with ServerThread(store=RunStore(store_dir)) as server:
            stream = _sse_bytes(server, scenario.key()).decode()
        events = [line.split(": ", 1)[1] for line in stream.splitlines()
                  if line.startswith("event: ")]
        assert events == ["result", "done"]
        payload = json.loads(
            [line for line in stream.splitlines()
             if line.startswith("data: ") and '"records"' in line][0][len("data: "):]
        )
        assert payload["records"] == records

    def test_unknown_key_is_404(self, tmp_path):
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
            try:
                conn.request("GET", "/events/deadbeef")
                assert conn.getresponse().status == 404
            finally:
                conn.close()


class TestBackpressure:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path, monkeypatch):
        started = threading.Event()
        release = threading.Event()
        real = service_module.execute_plan

        def gated(*args, **kwargs):
            started.set()
            assert release.wait(30), "test gate never released"
            return real(*args, **kwargs)

        monkeypatch.setattr(service_module, "execute_plan", gated)
        with ServerThread(store=RunStore(str(tmp_path / "store")),
                          workers=1, queue_size=1) as server:
            # Cell A occupies the single compute thread...
            status, _, _ = _request(server, "POST", "/run?wait=0", _scenario(1))
            assert status == 202
            assert started.wait(30)
            # ...cell B waits for it, which fills the queue...
            status, _, _ = _request(server, "POST", "/run?wait=0", _scenario(2))
            assert status == 202
            _, stats, _ = _request(server, "GET", "/stats")
            assert stats["queue"]["depth"] == 1 and stats["queue"]["inflight"] == 2
            # ...cell C is explicit backpressure.
            status, body, headers = _request(
                server, "POST", "/run?wait=0", _scenario(3))
            assert status == 429
            assert "Retry-After" in headers
            assert int(headers["Retry-After"]) >= 1
            assert "queue is full" in body["error"]
            assert server.service.counters["busy_429"] == 1
            release.set()
            # The rejected client retries after the drain and succeeds.
            status = 429
            for _ in range(3000):
                status, body, _ = _request(server, "POST", "/run", _scenario(3))
                if status != 429:
                    break
                threading.Event().wait(0.01)
            assert status == 200 and body["status"] in ("ok", "warm")


class TestDuplicateAfterStoreWrite:
    def test_duplicate_routed_before_the_future_settles_joins(self, tmp_path, monkeypatch):
        """A compute thread writes the store before its future settles; a
        duplicate routed in that gap joins the computation (202
        ``joined``) instead of reading the store as ``warm``."""
        written, routed = threading.Event(), threading.Event()
        real = service_module.execute_plan

        def gated(*args, **kwargs):
            lists = real(*args, **kwargs)  # the records are in the store
            written.set()
            assert routed.wait(30), "test gate never released"
            return lists

        monkeypatch.setattr(service_module, "execute_plan", gated)
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            status, body, _ = _request(server, "POST", "/run?wait=0", SCENARIO)
            assert status == 202 and body["status"] == "queued"
            assert written.wait(30)
            try:
                status, body, _ = _request(server, "POST", "/run?wait=0", SCENARIO)
            finally:
                routed.set()
            assert status == 202 and body["status"] == "joined"
            status, body, _ = _request(server, "POST", "/run", SCENARIO)
            assert status == 200
            service = server.service
            assert service.counters["computed"] == 1
            assert service.counters["dedup_joined"] >= 1


class TestSharedStore:
    def test_cell_written_by_another_handle_is_warm(self, tmp_path):
        """A cell another writer (a CLI sweep, say) stores after the
        server opened the store is answered warm, not recomputed."""
        store_dir = str(tmp_path / "store")
        scenario = Scenario.from_dict(SCENARIO)
        with ServerThread(store=RunStore(store_dir)) as server:
            records = list(scenario.run(store=RunStore(store_dir)))
            status, body, _ = _request(server, "POST", "/run", SCENARIO)
            assert status == 200 and body["status"] == "warm"
            assert body["records"] == records
            assert server.service.counters["computed"] == 0


class TestServeCommand:
    def test_boots_answers_and_stops_on_ctrl_c(self, tmp_path):
        """``python -m repro serve`` prints where it listens, answers
        ``/healthz``, and on SIGINT says it stopped and exits 0."""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        try:
            line = proc.stdout.readline()
            match = re.fullmatch(r"repro serve listening on http://127\.0\.0\.1:(\d+)\n", line)
            assert match, line
            conn = http.client.HTTPConnection("127.0.0.1", int(match.group(1)), timeout=60)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["ok"] is True
            finally:
                conn.close()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=60) == 0
            out, err = proc.stdout.read(), proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        assert out.splitlines()[-1] == "repro serve: stopped", (out, err)
        assert "Traceback" not in err, err

    @pytest.mark.parametrize("flags, reason", [
        (None, "cannot listen on"),
        (["--port", "70000"], "cannot listen on 127.0.0.1:70000: bind(): port must be"),
        (["--port", "-1"], "cannot listen on 127.0.0.1:-1: bind(): port must be"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--queue-size", "0"], "queue_size must be >= 1"),
    ], ids=["port-in-use", "port-70000", "port--1", "workers-0", "queue-size-0"])
    def test_port_in_use_is_a_one_line_rejection(self, flags, reason):
        from repro.cli import main

        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            if flags is None:
                flags = ["--port", str(held.getsockname()[1])]
            with pytest.raises(SystemExit) as exc:
                main(["serve", *flags])
        assert str(exc.value).startswith(
            f"serve rejected: ConfigurationError: {reason}"), exc.value

    def test_cancelled_close_ends_the_handler_quietly(self):
        """A shutdown that cancels the handler while it awaits the
        writer's close must not leave the task cancelled: asyncio's
        done-callback would log a CancelledError traceback."""
        class Writer:
            closed = False

            def close(self):
                self.closed = True

            async def wait_closed(self):
                raise asyncio.CancelledError

        async def handle():
            reader = asyncio.StreamReader()
            reader.feed_eof()
            writer = Writer()
            task = asyncio.ensure_future(ServeApp(None).handle(reader, writer))
            await asyncio.wait([task])
            return task, writer

        task, writer = asyncio.run(handle())
        assert writer.closed
        assert not task.cancelled() and task.exception() is None


class TestFailureResponses:
    def test_killed_worker_is_structured_500_and_server_survives(self, tmp_path):
        """A crash-faulted cell quarantines into a 5xx body, not a dead server."""
        poisoned = Scenario.from_dict(_scenario(7))
        faults = FaultPlan(
            {poisoned.key(): FaultSpec(mode="crash", attempts=None)}
        )
        with ServerThread(store=RunStore(str(tmp_path / "store")),
                          faults=faults) as server:
            status, body, _ = _request(server, "POST", "/run", _scenario(7))
            assert status == 500
            assert body["status"] == "failed"
            [record] = body["records"]
            assert record["failed"] is True and record["success"] is False
            assert record["key"] == poisoned.key()
            assert record["attempts"] >= 1
            # The event stream carries the quarantine.
            stream = _sse_bytes(server, poisoned.key()).decode()
            assert "event: quarantined" in stream
            assert '"status":"failed"' in stream
            # The server is alive and healthy requests still compute.
            status, body, _ = _request(server, "GET", "/healthz")
            assert status == 200 and body["ok"] is True
            status, body, _ = _request(server, "POST", "/run", SCENARIO)
            assert status == 200 and body["status"] == "ok"
            # Quarantined cells are never persisted as warm results.
            status, body, _ = _request(server, "POST", "/run?wait=0", _scenario(7))
            assert status == 202

    def test_rejection_is_422(self, tmp_path):
        # f beyond the row's bound on this graph: a deterministic
        # ReproError rejection, distinct from a quarantined crash.
        payload = dict(SCENARIO, f=99, kind="table1")
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            status, body, _ = _request(server, "POST", "/run", payload)
        assert status in (422, 500)  # rejection path; never a crash
        assert body["status"] in ("rejected", "failed")


    def test_graph_a_generator_refuses_is_4xx_without_retry(self, tmp_path):
        """Keying a tolerance cell at ``f="max"`` builds its graph; a
        generator refusing its arguments there is a 4xx rejection, and
        nothing is queued, computed or retried."""
        payload = {"algorithm": 4, "kind": "tolerance",
                   "graph": {"family": "ring", "args": {"n": 2}}}
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            status, body, _ = _request(server, "POST", "/run", payload)
            assert status == 422, body
            assert "ring needs n >= 3" in body["error"]
            status, body, _ = _request(server, "POST", "/sweep", [SCENARIO, payload])
            assert status == 422 and body["field"] == "scenarios[1]", body
            _, stats, _ = _request(server, "GET", "/stats")
        assert stats["counters"]["requests"] == stats["counters"]["enqueued"] == 0


class TestOffLoopKeying:
    def test_graph_build_while_keying_leaves_the_loop_free(self, tmp_path, monkeypatch):
        """Keying a tolerance cell at ``f="max"`` builds its graph.  The
        build runs in a worker thread: while it is blocked the server
        still answers ``/healthz``, and the ``/run`` completes, with the
        records of a direct run, once the build is released."""
        payload = {"algorithm": 4, "kind": "tolerance", "strategy": "squatter",
                   "graph": {"family": "random_connected", "args": {"n": 7, "seed": 0}}}
        expected = list(Scenario.from_dict(payload).run())
        entered, release = threading.Event(), threading.Event()
        real = scenarios_module.resolve_spec

        def blocked(spec):
            entered.set()
            release.wait(60)
            return real(spec)

        monkeypatch.setattr(scenarios_module, "resolve_spec", blocked)
        answers = []
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            client = threading.Thread(
                target=lambda: answers.append(_request(server, "POST", "/run", payload)))
            client.start()
            try:
                assert entered.wait(30), "keying never resolved the graph"
                status, body, _ = _request(server, "GET", "/healthz", timeout=5)
                assert status == 200 and body["ok"] is True
            finally:
                release.set()
                client.join(60)
        [(status, body, _)] = answers
        assert status == 200 and body["status"] == "ok"
        assert body["records"] == expected


class TestByteIdentity:
    def test_server_store_is_byte_identical_to_cli_store(self, tmp_path):
        """Same scenarios, two stores — CLI-written and server-written —
        must match shard for shard, byte for byte."""
        scenarios = [_scenario(s) for s in range(3)]
        cli_dir, serve_dir = tmp_path / "cli", tmp_path / "serve"

        grid = ScenarioGrid.from_dicts(scenarios)
        cli_records = list(grid.run(store=RunStore(str(cli_dir))))

        with ServerThread(store=RunStore(str(serve_dir)), workers=1) as server:
            status, body, _ = _request(
                server, "POST", "/sweep", {"scenarios": scenarios})
        assert status == 200 and body["ok"] is True
        served = [record for entry in body["results"]
                  for record in entry["records"]]
        assert served == cli_records

        cli_files = sorted(p.name for p in cli_dir.iterdir())
        serve_files = sorted(p.name for p in serve_dir.iterdir())
        assert cli_files == serve_files
        for name in cli_files:
            assert (cli_dir / name).read_bytes() == (serve_dir / name).read_bytes(), (
                f"shard {name} differs between CLI and server stores"
            )


class TestSweepEndpoint:
    def test_sweep_mixes_warm_and_cold(self, tmp_path):
        store_dir = str(tmp_path / "store")
        warm = Scenario.from_dict(_scenario(0))
        warm_records = list(warm.run(store=RunStore(store_dir)))
        with ServerThread(store=RunStore(store_dir)) as server:
            status, body, _ = _request(
                server, "POST", "/sweep",
                {"scenarios": [_scenario(0), _scenario(1)]})
        assert status == 200
        first, second = body["results"]
        assert first["status"] == "warm" and first["records"] == warm_records
        assert second["status"] == "ok"

    def test_sweep_duplicate_cells_coalesce(self, tmp_path):
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            status, body, _ = _request(
                server, "POST", "/sweep", [_scenario(0), _scenario(0)])
            assert status == 200
            assert server.service.counters["computed"] == 1
            assert server.service.counters["dedup_joined"] == 1
        assert body["results"][0]["records"] == body["results"][1]["records"]

    def test_sweep_validation_names_the_entry(self, tmp_path):
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            status, body, _ = _request(
                server, "POST", "/sweep",
                [_scenario(0), dict(SCENARIO, f="lots")])
        assert status == 400
        assert body["field"] == "scenarios[1].f"


class TestNoServeTimeout:
    """Serve runs each cell serially in a compute thread, which cannot be
    preempted, so a timeout could never be enforced there."""

    def test_serve_has_no_timeout_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--timeout", "5"])
        assert exc.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_service_rejects_a_timeout_policy(self):
        async def build():
            return service_module.DispersionService(
                policy=ExecutionPolicy(timeout=5.0))

        with pytest.raises(ConfigurationError, match="timeout"):
            asyncio.run(build())


class TestHttpSurface:
    def test_stats_reuses_store_stats_json(self, tmp_path, capsys):
        """/stats embeds exactly the dict `repro store stats --json` prints."""
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        Scenario.from_dict(SCENARIO).run(store=RunStore(store_dir))
        assert main(["store", "stats", store_dir, "--json"]) == 0
        cli_stats = json.loads(capsys.readouterr().out)
        with ServerThread(store=RunStore(store_dir)) as server:
            status, body, _ = _request(server, "GET", "/stats")
        assert status == 200
        for key, value in cli_stats.items():
            assert body["store"][key] == value
        assert body["queue"]["capacity"] == 64
        assert body["store"]["dropped"] == 0
        assert set(body["counters"]) >= {
            "requests", "warm_hits", "dedup_joined", "computed", "busy_429",
        }

    def test_result_endpoint(self, tmp_path):
        store_dir = str(tmp_path / "store")
        scenario = Scenario.from_dict(SCENARIO)
        records = list(scenario.run(store=RunStore(store_dir)))
        with ServerThread(store=RunStore(store_dir)) as server:
            status, body, _ = _request(server, "GET", f"/result/{scenario.key()}")
            assert status == 200 and body["records"] == records
            status, body, _ = _request(server, "GET", "/result/0000")
            assert status == 404

    def test_validation_maps_to_400_with_field(self, tmp_path):
        cases = [
            (dict(SCENARIO, bogus=1), "bogus"),
            (dict(SCENARIO, f="lots"), "f"),
            (dict(SCENARIO, seed="zero"), "seed"),
            (dict(SCENARIO, rounds=-1), "rounds"),
            (dict(SCENARIO, strategy="nope"), "strategy"),
            ({"algorithm": 4}, "graph"),
            (dict(SCENARIO, graph={"family": "hyperwhat", "args": {}}), "graph"),
            (dict(SCENARIO, graph={"family": []}), "graph"),
        ]
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            for payload, field in cases:
                status, body, _ = _request(server, "POST", "/run", payload)
                assert status == 400, payload
                assert body["field"] == field, payload
            # Non-JSON body and wrong method/route.
            conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
            try:
                for method, path, body, expected in [
                    ("POST", "/run", b"not json", 400),
                    ("GET", "/run", None, 405),
                    ("GET", "/nope", None, 404),
                ]:
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    response.read()
                    assert response.status == expected, (method, path)
            finally:
                conn.close()


async def _parse(data: bytes):
    """``read_request`` on a stream that delivers ``data`` and then EOF
    (a client that sends ``data`` and closes its half)."""
    reader = asyncio.StreamReader()  # the limit start_server gives the app
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader)


#: One line of request-head text: Latin-1 (how the parser decodes the
#: head) without line breaks.
_LINE = st.text(st.characters(max_codepoint=255, blacklist_characters="\r\n"), max_size=12)

_CONTENT_LENGTHS = st.sampled_from([
    "0", "5", "10", "1_0", "+10", "-1", "", "x", "\xb2", "9" * 5000, str(2 * 1024 * 1024 + 1),
]) | st.integers(0, 64).map(str)

_HEADER_LINES = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["Content-Length", "content-length"]), _CONTENT_LENGTHS),
        st.tuples(st.sampled_from(["Connection", "Transfer-Encoding", "Host"]), _LINE),
        st.tuples(_LINE, _LINE | st.none()),  # None: a line without a colon
    ),
    max_size=4,
)


def _assemble(method, target, version, headers, body, cut):
    lines = [f"{method} {target} {version}"]
    lines += [name if value is None else f"{name}: {value}" for name, value in headers]
    data = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    return data if cut is None else data[:cut]


#: Request heads built from near-valid and junk parts, bodies that may
#: disagree with Content-Length, optional truncation, and raw bytes.
_RAW_REQUESTS = st.one_of(
    st.builds(
        _assemble,
        st.sampled_from(["GET", "POST", "get", ""]) | _LINE,
        st.sampled_from([
            "/healthz", "/run", "/result/ab?x=1&&y=%20&=z", "//[abc", "http://[::1]:8/x",
            "/%zz%", "*", "",
        ]) | _LINE,
        st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/2", "http/1.1"]) | _LINE,
        _HEADER_LINES,
        st.binary(max_size=40),
        st.none() | st.integers(0, 80),
    ),
    st.binary(max_size=120),
)


#: Any JSON value, nested a few levels deep.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

#: Valid values for every scenario field.
_VALID = {
    "version": st.just(1),
    "kind": st.sampled_from(["table1", "tolerance", "scaling"]),
    "algorithm": st.sampled_from([1, 4, 5, "5", "theorem3", "solve_theorem4"]),
    "strategy": st.sampled_from(["squatter", "idle", "crash"]),
    "f": st.sampled_from(["max", 0, 1, 2]),
    "placement": st.sampled_from(["lowest", "highest", "random"]),
    "seed": st.integers(0, 3),
    "rounds": st.sampled_from([None, 0, 5]),
    "scheduler": st.sampled_from([
        "synchronous", "semi_synchronous(p=0.5)", "adversarial(window=4)",
        "crash_recovery(down=2,up=6)",
    ]),
    "graph": st.sampled_from([
        {"family": "ring", "args": {"n": 6}},
        {"family": "random_connected", "args": {"n": 7, "seed": 0}},
        {"family": "torus", "args": {"cols": 3, "rows": 3}},
        {"port_table": {"0": {"1": [1, 1]}, "1": {"1": [0, 1]}}},
    ]),
}

#: Per field: near misses, then any JSON value (the graph slot also gets
#: structured junk under its two recognised keys).
_ANY = {
    "version": st.sampled_from([0, 2, "1"]) | _JSON,
    "kind": st.sampled_from(["table9", ""]) | _JSON,
    "algorithm": st.sampled_from([0, 8, "theorem99", 2.5, True]) | _JSON,
    "strategy": st.sampled_from(["nope", ""]) | _JSON,
    "f": st.sampled_from([9, -1, "half", 1.5, True]) | _JSON,
    "placement": st.sampled_from(["middle", ""]) | _JSON,
    "seed": st.sampled_from([-1, 2**70, True, "0"]) | _JSON,
    "rounds": st.sampled_from([-1, 2.5, True]) | _JSON,
    "scheduler": st.sampled_from([
        "semi_synchronous(p=2)", "adversarial(window=0)", "warp(speed=9)",
        "synchronous(", "crash_recovery(down=2)",
    ]) | _JSON,
    "graph": st.one_of(
        st.fixed_dictionaries({"family": st.sampled_from(["ring", "torus", "nope"]) | _JSON},
                              optional={"args": _JSON}),
        st.fixed_dictionaries({"port_table": _JSON}),
        st.fixed_dictionaries({"port_table": st.dictionaries(
            st.sampled_from(["0", "1", "2", "x"]),
            st.dictionaries(st.sampled_from(["0", "1", "2"]),
                            st.lists(st.integers(-1, 3), max_size=3)),
            max_size=3)}),
        _JSON,
    ),
}

_VALID_PAYLOADS = st.fixed_dictionaries(
    {"algorithm": _VALID["algorithm"], "graph": _VALID["graph"]},
    optional={k: v for k, v in _VALID.items() if k not in ("algorithm", "graph")},
)


def _with_field(base, field_value):
    field, value = field_value
    return {**base, field: value}


#: Valid payloads, valid payloads with one field (or one unknown key)
#: replaced by junk, valid payloads with a junk graph (the one nested
#: slot, so it gets its own share), and arbitrary JSON.
_SCENARIO_PAYLOADS = st.one_of(
    _VALID_PAYLOADS,
    st.builds(
        _with_field,
        _VALID_PAYLOADS,
        st.sampled_from(sorted(_ANY) + ["surprise"]).flatmap(
            lambda field: st.tuples(st.just(field), _ANY.get(field, _JSON))),
    ),
    st.builds(_with_field, _VALID_PAYLOADS, st.tuples(st.just("graph"), _ANY["graph"])),
    _JSON,
)


class TestRawHttp:
    @settings(max_examples=200, derandomize=True)
    @given(data=_RAW_REQUESTS)
    @example(data=b"GET //[abc HTTP/1.1\r\n\r\n")
    @example(data=b"POST /run HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
    def test_read_request_parses_or_answers(self, data):
        """Property over raw request bytes: the parser returns a request
        or ``None`` (clean close), or raises ``HttpError``, which the
        server answers; nothing else may escape."""
        try:
            request = asyncio.run(_parse(data))
        except HttpError as exc:
            assert 400 <= exc.status < 600
        else:
            assert request is None or isinstance(request, Request)

    @pytest.mark.parametrize("data", [
        b"GET //[abc HTTP/1.1\r\n\r\n",
        b"POST /run HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
        b"POST /run HTTP/1.1\r\nContent-Length: +10\r\n\r\n0123456789",
        b"POST /run HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n",
    ], ids=["ipv6-target", "underscore", "plus", "5000-digits"])
    def test_malformed_target_or_length_is_400(self, data):
        with pytest.raises(HttpError) as excinfo:
            asyncio.run(_parse(data))
        assert excinfo.value.status == 400

    def test_server_answers_and_stays_up(self, tmp_path):
        """The two inputs that used to close the connection without a
        status line now get a 400, and the server keeps serving."""
        with ServerThread(store=RunStore(str(tmp_path / "store"))) as server:
            for data in (
                b"GET //[abc HTTP/1.1\r\n\r\n",
                b"POST /run HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
            ):
                with socket.create_connection((server.host, server.port), timeout=60) as sock:
                    sock.sendall(data)
                    reply = b""
                    while chunk := sock.recv(4096):
                        reply += chunk
                assert reply.startswith(b"HTTP/1.1 400 "), reply
            status, body, _ = _request(server, "GET", "/healthz")
            assert status == 200 and body["ok"]


class TestScenarioValidation:
    """Satellite: hardened `from_dict` negative-input coverage (no server)."""

    def test_validation_error_is_a_repro_error(self):
        assert issubclass(ValidationError, ConfigurationError)
        assert issubclass(ValidationError, ReproError)

    @pytest.mark.parametrize("payload, field", [
        ("not an object", "scenario"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "version": 99}, "version"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "shenanigans": 1}, "shenanigans"),
        ({"graph": {"family": "ring", "args": {"n": 6}}}, "algorithm"),
        ({"algorithm": 4}, "graph"),
        ({"algorithm": 4, "graph": []}, "graph"),
        ({"algorithm": 4, "graph": {"weird": 1}}, "graph"),
        ({"algorithm": 99, "graph": {"family": "ring", "args": {"n": 6}}},
         "algorithm"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "strategy": 7}, "strategy"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "strategy": "nope"}, "strategy"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "f": 1.5}, "f"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "f": True}, "f"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "f": "half"}, "f"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "kind": "table9"}, "kind"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "placement": "middle"}, "placement"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "seed": "zero"}, "seed"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "seed": True}, "seed"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "rounds": -3}, "rounds"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "rounds": 2.5}, "rounds"),
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "scheduler": "warp(speed=9)"}, "scheduler"),
        ({"algorithm": 4, "graph": {"family": []}}, "graph"),
        ({"algorithm": 4, "graph": {"family": {"ring": 6}}}, "graph"),
        # Well-formed JSON that is not a port labeling (ports count
        # from 1).
        ({"algorithm": 4, "graph": {"port_table": {"0": {"0": [1, 0]}}}}, "graph"),
        # A negative seed, top-level or a generator's, used to reach
        # numpy and fail every attempt with a 500.
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "seed": -1}, "seed"),
        ({"algorithm": 4, "graph": {"family": "random_connected",
                                    "args": {"n": 7, "seed": -1}}}, "graph"),
        # A generator argument of the wrong type used to reach the
        # generator and fail every attempt with a 500.
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": "x"}}}, "graph"),
        # ``True == 1``: equality alone took it as version 1.
        ({"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}},
          "version": True}, "version"),
        # An int past the float range escaped as a raw OverflowError (a
        # 500 from serve).
        ({"algorithm": 4, "graph": {"family": "random_connected",
                                    "args": {"n": 9, "avg_degree": 10 ** 400}}},
         "graph"),
    ])
    def test_bad_input_names_the_field(self, payload, field):
        with pytest.raises(ValidationError) as excinfo:
            Scenario.from_dict(payload)
        assert excinfo.value.field == field
        assert str(excinfo.value).startswith(f"{field}: ")

    def test_valid_payload_still_parses(self):
        scenario = Scenario.from_dict(SCENARIO)
        assert scenario.serial == 4 and scenario.f == "max"

    def test_grid_names_malformed_graphs(self):
        good = {"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}}}
        for graph in ({"family": []}, {"port_table": {"0": {"0": [1, 0]}}}):
            with pytest.raises(ValidationError) as excinfo:
                ScenarioGrid.from_dicts([good, dict(good, graph=graph)])
            assert excinfo.value.field == "scenarios[1].graph"

    @settings(max_examples=200, derandomize=True)
    @given(payload=_SCENARIO_PAYLOADS)
    @example(payload={"algorithm": 4, "graph": {
        "family": "random_connected", "args": {"n": 9, "avg_degree": 10 ** 400}}})
    def test_from_dict_fuzz_parses_or_names_a_field(self, payload):
        """Property over untrusted JSON: every field may hold any nested
        JSON value.  ``from_dict`` either returns a scenario whose JSON
        round trip keeps its identity and key, or raises
        ``ValidationError``; nothing else may escape."""
        try:
            scenario = Scenario.from_dict(payload)
        except ValidationError:
            return
        again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert again == scenario
        assert again.to_dict() == scenario.to_dict()
        if not (scenario.f == "max" and scenario.kind != "table1"
                and not isinstance(scenario.graph, PortLabeledGraph)):
            # Keying a spec scenario at f="max" for the other kinds builds
            # the graph (its bound is resolved), and a generator checks
            # its own ranges (ring needs n >= 3) only when it builds;
            # every other key is computed from the JSON alone.
            assert again.key() == scenario.key()

    def test_grid_prefixes_the_entry_index(self):
        good = {"algorithm": 4, "graph": {"family": "ring", "args": {"n": 6}}}
        with pytest.raises(ValidationError) as excinfo:
            ScenarioGrid.from_dicts([good, dict(good, f="lots")])
        assert excinfo.value.field == "scenarios[1].f"
        with pytest.raises(ValidationError) as excinfo:
            ScenarioGrid.from_dicts([good, "nope"])
        assert excinfo.value.field == "scenarios[1]"
        with pytest.raises(ValidationError) as excinfo:
            ScenarioGrid.from_dicts({"not": "a list"})
        assert excinfo.value.field == "scenarios"

    def test_round_trip_unchanged_by_hardening(self):
        scenario = Scenario.from_dict(SCENARIO)
        again = Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))
        assert again == scenario and again.key() == scenario.key()
