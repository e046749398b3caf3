#!/usr/bin/env python3
"""Serve-subsystem smoke check (stdlib only; the CI serve job).

Boots the real serve stack on an ephemeral port with a fresh temporary
store, runs a cold+warm request pair (asserting the warm answer
performed zero additional computations and returned identical
records), reads one complete SSE stream, and checks ``/healthz`` +
``/stats``.  Exit 0 on success, 1 with a reason on any failure::

    python tools/load_serve.py

Self-booting; no external server required.  Throughput and latency of
the serve path are measured by ``perfbench/`` (workload ``serve``).
"""

from __future__ import annotations

import http.client
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.store import RunStore  # noqa: E402
from repro.serve import ServerThread  # noqa: E402

_SMOKE_SCENARIO = {
    "algorithm": 4,
    "graph": {"family": "random_connected", "args": {"n": 7, "seed": 0}},
    "strategy": "squatter",
    "f": "max",
    "seed": 0,
}


def _request(server, method: str, path: str, payload=None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _read_sse(server, key: str) -> list:
    """Read one complete event stream; returns the ``event:`` names."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
    try:
        conn.request("GET", f"/events/{key}")
        response = conn.getresponse()
        if response.status != 200:
            raise AssertionError(f"SSE stream answered {response.status}")
        text = response.read().decode()
    finally:
        conn.close()
    return [line.split(": ", 1)[1] for line in text.splitlines()
            if line.startswith("event: ")]


def smoke() -> int:
    """Boot, cold+warm pair, one SSE stream, health + stats.  0 = pass."""
    tmp = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    failures = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        print(f"  {'ok ' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(label)

    try:
        with ServerThread(store=RunStore(tmp), workers=2) as server:
            print(f"smoke: serve stack on {server.base_url}")
            status, body = _request(server, "GET", "/healthz")
            check("healthz", status == 200 and body.get("ok") is True)

            status, cold = _request(server, "POST", "/run", _SMOKE_SCENARIO)
            check("cold run", status == 200 and cold.get("status") == "ok",
                  f"status={status}")
            key = cold.get("key", "")

            computed = server.service.counters["computed"]
            status, warm = _request(server, "POST", "/run", _SMOKE_SCENARIO)
            check(
                "warm run",
                status == 200 and warm.get("status") == "warm"
                and warm.get("records") == cold.get("records")
                and server.service.counters["computed"] == computed,
                "zero additional computations, identical records",
            )

            events = _read_sse(server, key)
            check(
                "SSE stream",
                events[:2] == ["queued", "started"]
                and events[-2:] == ["result", "done"],
                "→".join(events[:3] + ["...", events[-1]] if len(events) > 4 else events),
            )

            status, stats = _request(server, "GET", "/stats")
            check(
                "stats", status == 200
                and stats["counters"]["warm_hits"] == 1
                and stats["counters"]["computed"] == 1
                and stats["store"]["cells"] == 1,
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"smoke: {'PASS' if not failures else 'FAIL: ' + ', '.join(failures)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(smoke())
