"""Deterministic fault injection for chaos-testing the sweep executor.

The executor in :mod:`repro.analysis.experiments` promises to survive
worker crashes, hung cells, and transient errors.  Promises about
failure paths rot unless the failures are reproducible, so this module
makes them *injectable*: a :class:`FaultPlan` maps run-store cell keys
(the same content keys :func:`~repro.analysis.experiments.cell_key_of`
assigns) to :class:`FaultSpec` values, and the executor consults the
plan before running each cell — in workers and in the serial path alike.

Three fault modes:

``"crash"``
    Kill the worker process outright (``os._exit``), producing the same
    ``BrokenProcessPool`` an OOM kill or segfault would.  In the serial
    path — where dying would take the test process with it — the crash
    is simulated by raising :class:`SimulatedCrash` instead.
``"hang"``
    Sleep for ``seconds`` before running the cell, far past any sane
    per-cell timeout; exercises the executor's deadline kill-and-retry
    path.  Only meaningful with ``workers > 1`` (the serial path has no
    preemption and will genuinely sleep).
``"error"``
    Raise :class:`TransientFault` — deliberately **not** a
    :class:`~repro.errors.ReproError`, because the executor treats the
    repro hierarchy as deterministic rejections (propagated, never
    retried) and everything else as a retryable fault.

Every spec carries an ``attempts`` budget: the fault fires on the first
``attempts`` dispatches of its cell and the cell runs clean afterwards
(``attempts=None`` makes the fault permanent — a poison cell).  Attempt
numbers count *dispatches*: a dispatch voided by a crash or timeout
elsewhere in the pool still advances the counter (the cell was handed
to a worker).

Plans are plain picklable data (each cell's spec rides to its worker
with the cell)
and :meth:`FaultPlan.sample` chooses victims with a seeded RNG, so a
chaos schedule is a value you can log, re-run, and bisect.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..errors import ConfigurationError

__all__ = [
    "FAULT_MODES",
    "FaultPlan",
    "FaultSpec",
    "SimulatedCrash",
    "TransientFault",
    "inject",
]

#: Fault modes a spec may request.
FAULT_MODES = ("crash", "hang", "error")


class TransientFault(RuntimeError):
    """An injected transient failure (the ``"error"`` mode).

    Subclasses ``RuntimeError``, not :class:`~repro.errors.ReproError`:
    the executor retries generic faults but propagates the repro
    hierarchy as deterministic rejections, and an injected fault must
    land on the retry side of that split.
    """


class SimulatedCrash(RuntimeError):
    """Serial-path stand-in for a worker crash.

    The serial executor runs cells in the driving process, where
    ``os._exit`` would kill the sweep *and* its caller; raising this
    instead keeps crash schedules runnable (and retryable) without
    process isolation.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One cell's injected fault: what goes wrong, and for how long.

    ``attempts`` is the number of leading dispatches the fault fires on
    (``None`` = every dispatch, i.e. a poison cell); ``seconds`` is the
    ``"hang"`` sleep; ``message`` threads into the raised error text so
    chaos-test assertions can recognise their own faults.
    """

    mode: str
    attempts: Optional[int] = 1
    seconds: float = 3600.0
    message: str = "injected fault"

    def __post_init__(self):
        if self.mode not in FAULT_MODES:
            raise ConfigurationError(
                f"unknown fault mode {self.mode!r} (choose from {FAULT_MODES})"
            )
        if self.attempts is not None and (
            isinstance(self.attempts, bool)
            or not isinstance(self.attempts, int)
            or self.attempts < 1
        ):
            raise ConfigurationError(
                f"fault attempts must be a positive int or None, got {self.attempts!r}"
            )
        if not self.seconds >= 0:
            raise ConfigurationError(
                f"fault seconds must be non-negative, got {self.seconds!r}"
            )

    def active(self, attempt: int) -> bool:
        """Whether the fault fires on dispatch number ``attempt`` (1-based)."""
        return self.attempts is None or attempt <= self.attempts


def inject(spec: Optional[FaultSpec], attempt: int, serial: bool = False) -> None:
    """Fire ``spec`` for dispatch ``attempt`` if it is active; else no-op.

    Called by the executor immediately before running a cell — in the
    worker for parallel plans, in-process for serial ones (``serial=True``
    swaps the ``"crash"`` mode's ``os._exit`` for :class:`SimulatedCrash`).
    """
    if spec is None or not spec.active(attempt):
        return
    if spec.mode == "error":
        raise TransientFault(f"{spec.message} (attempt {attempt})")
    if spec.mode == "hang":
        time.sleep(spec.seconds)
        return
    # "crash": die the way an OOM-killed worker dies — no cleanup, no
    # exception crossing the pipe, just a vanished process.
    if serial:
        raise SimulatedCrash(f"{spec.message} (attempt {attempt})")
    os._exit(86)


class FaultPlan:
    """A reproducible chaos schedule: cell key → :class:`FaultSpec`.

    Keys are the executor's content-addressed cell keys, so a plan is
    stable across serial/parallel/resumed runs of the same grid (the key
    *is* the cell's identity).  The plan itself is plain picklable data;
    ``seed`` records how a sampled plan was drawn.
    """

    def __init__(self, specs: Mapping[str, FaultSpec], seed: int = 0):
        for key, spec in specs.items():
            if not isinstance(spec, FaultSpec):
                raise ConfigurationError(
                    f"FaultPlan values must be FaultSpec, got {type(spec).__name__}"
                )
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"FaultPlan keys are cell-key strings, got {type(key).__name__}"
                )
        self.specs: Dict[str, FaultSpec] = dict(specs)
        self.seed = seed

    def for_key(self, key: Optional[str]) -> Optional[FaultSpec]:
        """The fault injected for cell ``key``, or ``None``."""
        if key is None:
            return None
        return self.specs.get(key)

    def __len__(self) -> int:
        return len(self.specs)

    def __contains__(self, key: str) -> bool:
        return key in self.specs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return self.specs == other.specs and self.seed == other.seed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        modes = sorted(s.mode for s in self.specs.values())
        return f"FaultPlan({len(self.specs)} fault(s): {modes}, seed={self.seed})"

    @classmethod
    def sample(
        cls,
        keys: Sequence[str],
        seed: int = 0,
        crash: int = 0,
        hang: int = 0,
        transient: int = 0,
        attempts: Optional[int] = 1,
        hang_seconds: float = 3600.0,
    ) -> "FaultPlan":
        """Draw a plan over ``keys``: ``crash``/``hang``/``transient``
        victims chosen without replacement by a ``seed``-determined RNG.
        Same keys + same seed = same plan, so a failing chaos run can be
        replayed exactly from its logged parameters.
        """
        wanted = crash + hang + transient
        if wanted > len(keys):
            raise ConfigurationError(
                f"cannot sample {wanted} fault(s) from {len(keys)} cell key(s)"
            )
        rng = random.Random(seed)
        victims = rng.sample(list(keys), wanted)
        specs: Dict[str, FaultSpec] = {}
        cursor = 0
        for mode, count in (("crash", crash), ("hang", hang), ("error", transient)):
            for key in victims[cursor:cursor + count]:
                specs[key] = FaultSpec(
                    mode=mode, attempts=attempts, seconds=hang_seconds,
                    message=f"sampled {mode} fault",
                )
            cursor += count
        return cls(specs, seed=seed)
