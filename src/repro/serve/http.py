"""Minimal HTTP/1.1 over asyncio streams (stdlib only, no frameworks).

The serve subsystem speaks just enough HTTP for its API: request-line +
headers + optional ``Content-Length`` body in, fixed-length JSON or
unbounded Server-Sent-Event responses out, with keep-alive.  Chunked
request bodies, multipart, compression, and TLS are deliberately out of
scope — a reverse proxy owns those concerns in any real deployment.

Responses carry no ``Date`` header and no other wall-clock material:
response bytes for the same state must be identical across runs (the
SSE golden-transcript test pins this).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import Dict, Optional, Tuple
from urllib.parse import unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "json_bytes",
    "read_request",
    "response_bytes",
    "sse_frame",
    "sse_preamble",
]

#: Hard caps on untrusted input: a request line + headers block beyond
#: 16 KiB or a body beyond 2 MiB is rejected, not buffered.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 2 * 1024 * 1024


class HttpError(Exception):
    """A structured HTTP failure the server turns into a JSON response.

    ``field`` names the offending request field for 400s (mirroring
    :class:`repro.errors.ValidationError`); ``retry_after`` becomes a
    ``Retry-After`` header on 429/503 responses.
    """

    def __init__(
        self,
        status: int,
        message: str,
        field: Optional[str] = None,
        retry_after: Optional[int] = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.field = field
        self.retry_after = retry_after

    def body(self) -> Dict:
        out: Dict = {"error": self.message, "status": self.status}
        if self.field is not None:
            out["field"] = self.field
        return out


@dataclass
class Request:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self):
        """The body parsed as JSON (400 on syntax errors, not a crash)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON (empty body)")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    def flag(self, name: str, default: bool) -> bool:
        """A boolean query parameter (``wait=0`` / ``wait=false`` off)."""
        raw = self.query.get(name)
        if raw is None:
            return default
        return raw.lower() not in ("0", "false", "no")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean close.

    Raises :class:`HttpError` on malformed or oversized input — the
    connection handler answers it and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # client closed between requests: normal
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(431, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(431, f"request head exceeds {MAX_HEADER_BYTES} bytes")
    try:
        lines = head[:-4].decode("latin-1").split("\r\n")
    except UnicodeDecodeError:
        raise HttpError(400, "undecodable request head")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unbalanced "[" in the netloc
        raise HttpError(400, f"malformed request target: {exc}")
    query: Dict[str, str] = {}
    if split.query:
        for pair in split.query.split("&"):
            key, _, value = pair.partition("=")
            if key:
                query[unquote(key)] = unquote(value)
    body = b""
    if "content-length" in headers:
        raw_length = headers["content-length"]
        try:
            # ASCII digits only: int() alone would also take "+10" and "1_0".
            if not (raw_length.isascii() and raw_length.isdigit()):
                raise ValueError(raw_length)
            length = int(raw_length)  # ValueError past int()'s digit limit
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")
    return Request(
        method=method, path=unquote(split.path), query=query,
        headers=headers, body=body,
    )


def json_bytes(obj) -> bytes:
    """Canonical response JSON: sorted keys, compact, newline-terminated
    (equal payloads serialize byte-identically — the golden transcript
    and the byte-identity tests rely on it)."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def response_bytes(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    """One complete fixed-length response, ready to write."""
    phrase = HTTPStatus(status).phrase
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def sse_preamble() -> bytes:
    """Response head opening an unbounded ``text/event-stream`` body.

    No ``Content-Length``: the stream ends when the server closes the
    connection after the terminal ``done`` event.
    """
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: text/event-stream\r\n"
        b"Cache-Control: no-store\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    )


def sse_frame(event: str, data, event_id: Optional[int] = None) -> bytes:
    """One Server-Sent-Event frame (``id``/``event``/``data`` + blank)."""
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"event: {event}")
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    lines.append(f"data: {payload}")
    return ("\n".join(lines) + "\n\n").encode()
