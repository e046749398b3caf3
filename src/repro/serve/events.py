"""Per-key event logs with live fan-out (the SSE backbone).

Every cell key the service touches gets an ordered event log —
``queued``, ``started``, sampled ``round`` progress, ``result`` /
``quarantined`` / ``rejected``, and a terminal ``done``.  A subscriber
arriving at any point receives the full history first (replay) and then
live events in publication order, so an SSE client that connects after
the run finished still sees the complete, deterministic transcript.

Single-threaded by construction: every method runs on the server's
event loop (worker threads publish via ``call_soon_threadsafe``), so no
locks are needed.  Completed logs are retained in insertion order and
the oldest are evicted beyond :data:`RETAIN_DONE` — the broker's memory
is bounded no matter how many cells a long-lived server computes.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["EventBroker"]

#: An event as the broker stores it: ``(id, name, data)``.
Event = Tuple[int, str, dict]

#: Completed logs kept for late subscribers; older ones are evicted.
RETAIN_DONE = 64

#: Per-key history cap: beyond it, *round* events stop being retained
#: (and streamed) — terminal events always land.
MAX_EVENTS = 4096


@dataclass
class _KeyLog:
    events: List[Event] = field(default_factory=list)
    done: bool = False
    subscribers: List[asyncio.Queue] = field(default_factory=list)


class EventBroker:
    """Ordered event history + live subscriptions, per cell key."""

    def __init__(self) -> None:
        self._logs: "OrderedDict[str, _KeyLog]" = OrderedDict()

    def known(self, key: str) -> bool:
        return key in self._logs

    def publish(self, key: str, event: str, data: dict, done: bool = False) -> None:
        """Append an event to ``key``'s log and wake its subscribers.

        ``done=True`` marks the log terminal: subscriber queues get a
        ``None`` sentinel, and the completed log becomes subject to
        retention eviction.
        """
        log = self._logs.setdefault(key, _KeyLog())
        if log.done:
            return  # a terminal log is immutable
        if len(log.events) >= MAX_EVENTS and not done and event == "round":
            return  # progress overflow: drop samples, never terminals
        item: Event = (len(log.events), event, data)
        log.events.append(item)
        for queue in log.subscribers:
            queue.put_nowait(item)
        if done:
            log.done = True
            for queue in log.subscribers:
                queue.put_nowait(None)
            log.subscribers.clear()
            self._evict()

    def subscribe(self, key: str) -> Tuple[List[Event], Optional[asyncio.Queue]]:
        """History snapshot plus a live queue (``None`` if already done).

        The queue yields ``(id, event, data)`` tuples and a final
        ``None`` sentinel; it is unbounded because the publisher is the
        event loop itself (a slow SSE client backs up its own socket
        buffer, not the broker).
        """
        log = self._logs.setdefault(key, _KeyLog())
        history = list(log.events)
        if log.done:
            return history, None
        queue: asyncio.Queue = asyncio.Queue()
        log.subscribers.append(queue)
        return history, queue

    def unsubscribe(self, key: str, queue: asyncio.Queue) -> None:
        log = self._logs.get(key)
        if log is not None and queue in log.subscribers:
            log.subscribers.remove(queue)

    def _evict(self) -> None:
        done_keys = [k for k, log in self._logs.items() if log.done]
        excess = len(done_keys) - RETAIN_DONE
        for key in done_keys[:max(0, excess)]:
            del self._logs[key]

    def stats(self) -> Dict[str, int]:
        return {
            "keys": len(self._logs),
            "done": sum(1 for log in self._logs.values() if log.done),
            "subscribers": sum(len(log.subscribers) for log in self._logs.values()),
        }
