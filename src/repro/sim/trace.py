"""Event tracing for simulations.

A trace keeps per-kind event counters and, optionally, a flat list of
``(round, kind, data)`` events.  Counters are all that records, reports
and stores read, so they are the default: a world keeps event objects
only when built with ``World(keep_trace=True)`` (engine comparisons and
tests that inspect individual moves).  Without events, hot loops bump
counters and allocate nothing per move or settle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """A single simulation event."""

    round: int
    kind: str
    data: Dict[str, Any]


class Trace:
    """Append-only event log with per-kind counters.

    Counters are always maintained (metrics need them); full events are
    kept only when ``keep_events=True`` (off by default).
    """

    __slots__ = ("keep_events", "events", "counters")

    def __init__(self, keep_events: bool = False):
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.counters: Counter = Counter()

    def record(self, round_no: int, kind: str, **data: Any) -> None:
        """Record one event."""
        self.counters[kind] += 1
        if self.keep_events:
            self.events.append(TraceEvent(round=round_no, kind=kind, data=data))

    def bump(self, kind: str) -> None:
        """Counter-only fast path for hot loops.

        Equivalent to :meth:`record` when ``keep_events`` is False, but
        builds no kwargs dict and no event object.  Hot call sites branch
        on ``keep_events`` themselves and call this on the cheap side.
        """
        self.counters[kind] += 1

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded."""
        return self.counters[kind]

    def of_kind(self, kind: str) -> Iterator[TraceEvent]:
        """Iterate stored events of one kind (empty if events not kept)."""
        return (e for e in self.events if e.kind == kind)

    def last(self, kind: str) -> Optional[TraceEvent]:
        """Most recent stored event of ``kind``, or ``None``."""
        for e in reversed(self.events):
            if e.kind == kind:
                return e
        return None

    def __len__(self) -> int:
        return len(self.events)
