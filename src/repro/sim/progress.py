"""Per-round progress observation for live run streaming.

The serve subsystem streams round-by-round dispersion progress over
Server-Sent Events while a cell computes.  Rather than threading a
callback through every solver signature (and perturbing the pickled
parallel-dispatch payloads), observation is a **thread-local sink**: a
worker installs one around its ``execute_plan`` call, and
:meth:`~repro.sim.world.World.step` invokes it once per completed round.

Design constraints, in order:

* **Zero influence on records.**  The sink only *reads* world state —
  it must never mutate the world, consume RNG draws, or raise (a
  misbehaving observer must not turn a deterministic run into a
  quarantined cell, so :meth:`World.step` calls it outside the solver's
  control flow and the serve worker wraps its own sink body).
* **Near-zero cost when absent.**  The common case — every CLI run,
  every test, every benchmark — pays one thread-local attribute read
  per round and nothing else.  The attribute has a class-level default,
  so the read never raises and catches an ``AttributeError``.
* **Thread-local, not global.**  The serve worker pool runs several
  cells concurrently in one process; each worker's sink must only see
  its own cell's rounds.

The sink signature is ``sink(world, completed_round)`` — ``world`` is
the live :class:`~repro.sim.world.World` *after* the round's moves were
applied, ``completed_round`` the round number that just ran (the
world's own counter may have jumped ahead via sleep fast-forwarding).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["current_sink", "observe", "settled_count"]

ProgressSink = Callable[[object, int], None]


class _Local(threading.local):
    """Per-thread progress state; ``sink`` is ``None`` on every thread
    until :func:`observe` sets it."""

    sink: Optional[ProgressSink] = None


_LOCAL = _Local()


def current_sink() -> Optional[ProgressSink]:
    """The sink installed on this thread, or ``None`` (the fast path)."""
    return _LOCAL.sink


@contextmanager
def observe(sink: ProgressSink) -> Iterator[None]:
    """Install ``sink`` as this thread's progress observer.

    Nesting replaces the outer sink for the inner block and restores it
    on exit, so an observed run can itself run observed sub-simulations
    without cross-talk.
    """
    previous = _LOCAL.sink
    _LOCAL.sink = sink
    try:
        yield
    finally:
        _LOCAL.sink = previous


def settled_count(world) -> int:
    """How many honest robots have settled (the dispersion progress
    measure a round-by-round stream reports)."""
    return sum(
        1 for r in world.robots.values()
        if not r.byzantine and r.settled_node is not None
    )
