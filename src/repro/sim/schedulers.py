"""Activation schedulers: who gets to act in each round.

The paper's model (Section 1.1) is fully synchronous — every robot is
activated every round — but the dispersion literature it builds on
treats the activation model as a free parameter (Kshemkalyani et al.
study asynchronous dispersion; Molla, Mondal & Moses show fault strength
and timing interact).  This module makes the activation model a
first-class axis: a :class:`Scheduler` is a callable

    ``scheduler(rnd, roster, rng) -> activated``

that receives the current round number, the live robot roster (the
world's sub-round order: non-terminated robots ascending by
``(claimed_id, true_id)``), and a dedicated RNG stream, and returns the
set of ``true_id``s activated this round — or ``None`` as a fast-path
shorthand for "everyone".  A robot that is not activated keeps its
public record frozen and its program un-resumed for the round; movement,
boards, and the round counter tick on regardless.

The built-in zoo, organised by the timing regime it models:

===================================  ==================================
scheduler                            timing regime
===================================  ==================================
synchronous                          the paper's model: everyone, every
                                     round (byte-identical to the
                                     scheduler-free engine)
semi_synchronous(p=0.5)              semi-synchronous: each live robot
                                     independently activated with
                                     probability ``p`` per round
adversarial(window=4)                worst case with a fairness bound:
                                     starves the lowest-ranked
                                     unsettled honest robot but must
                                     activate every robot at least once
                                     in any ``window`` consecutive
                                     rounds
crash_recovery(down=2,up=6)          deterministic outages: all robots
                                     run for ``up`` rounds, then are
                                     down for ``down`` rounds, cyclically
===================================  ==================================

Specs and determinism
---------------------
Schedulers are addressed by **canonical spec strings** — the left column
above — exactly like adversary strategies are addressed by registry
names: a spec is what a :class:`~repro.scenarios.Scenario` serializes,
what ``repro table1 --scheduler`` parses, and what joins the run-store
cell key (the ``synchronous`` default canonicalises *out* of the key, so
every pre-existing store cell stays warm).  :func:`parse_scheduler`
accepts positional or named arguments (``semi_synchronous(0.5)`` ==
``semi_synchronous(p=0.5)``); :func:`canonical_scheduler` normalises to
the named, signature-ordered form.

The scheduler RNG stream is derived from the **adversary seed** (the
scheduler is part of the adversary's power, like Byzantine placement):
:func:`scheduler_rng` seeds a dedicated child stream, so records are
deterministic in serial, parallel, and resumed runs and never perturb
the strategy or placement streams.

Stateful schedulers (``adversarial`` tracks per-robot activation ages)
are built **fresh per run** by :func:`build_scheduler`; never share one
instance between two worlds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "SCHEDULERS",
    "Scheduler",
    "SchedulerSpec",
    "SynchronousScheduler",
    "SemiSynchronousScheduler",
    "AdversarialScheduler",
    "CrashRecoveryScheduler",
    "build_scheduler",
    "canonical_scheduler",
    "parse_scheduler",
    "scheduler_rng",
]

#: Domain-separation tag for the scheduler RNG stream: the scheduler
#: draws from ``default_rng((seed, SCHEDULER_STREAM))`` so its stream is
#: independent of the per-robot strategy streams ``(seed, true_id)`` and
#: the placement stream ``(seed,)`` derived from the same adversary seed.
SCHEDULER_STREAM = 0x5C4ED

#: The protocol type: ``(round, roster, rng) -> activated true_ids``
#: (``None`` = all).  ``roster`` is the world's live sub-round order.
Scheduler = Callable[[int, Sequence, np.random.Generator], Optional[FrozenSet[int]]]


def scheduler_rng(seed: int) -> np.random.Generator:
    """The dedicated scheduler RNG stream derived from an adversary seed."""
    return np.random.default_rng((int(seed), SCHEDULER_STREAM))


# --------------------------------------------------------------------- #
# Built-in schedulers
# --------------------------------------------------------------------- #


class SynchronousScheduler:
    """Everyone, every round — the paper's fully synchronous model.

    The world treats this scheduler as absent: the hot path takes the
    scheduler-free branch, so behaviour (traces, records, store keys) is
    byte-identical to an engine that never heard of schedulers.
    """

    def __call__(self, rnd, roster, rng):
        return None


class SemiSynchronousScheduler:
    """Each live robot independently activated with probability ``p``.

    One uniform draw per roster robot per round, in roster (sub-round)
    order — the draw sequence is a pure function of the run, so records
    are identical in serial, parallel, and warm-store modes.  Sleeping
    robots consume their draw too (the draw schedule must not depend on
    program-internal sleep state).
    """

    def __init__(self, p: float):
        self.p = p

    def __call__(self, rnd, roster, rng):
        p = self.p
        return frozenset(r.true_id for r in roster if rng.random() < p)


class AdversarialScheduler:
    """Worst-case activation under the standard fairness bound.

    Each round, every robot is activated **except** the lowest-ranked
    unsettled honest robot (the one whose progress gates dispersion),
    which is starved — unless suppressing it would leave it inactive for
    ``window`` consecutive rounds, in which case the fairness bound
    forces its activation.  ``window=1`` degenerates to synchronous.
    """

    def __init__(self, window: int):
        self.window = window
        #: true_id -> round the robot was last activated (first sighting
        #: counts as "activated the round before", so a robot first seen
        #: in round r must run no later than round r + window - 1).
        self._last: Dict[int, int] = {}

    def __call__(self, rnd, roster, rng):
        last = self._last
        target = None
        active: List[int] = []
        for r in roster:
            if target is None and not r.byzantine and r.settled_node is None:
                target = r
                continue
            active.append(r.true_id)
            last[r.true_id] = rnd
        if target is not None:
            tid = target.true_id
            seen = last.setdefault(tid, rnd - 1)
            if rnd - seen >= self.window:  # fairness bound binds
                active.append(tid)
                last[tid] = rnd
        return frozenset(active)


class CrashRecoveryScheduler:
    """Deterministic global outage windows.

    Robots run for ``up`` rounds, then the whole system is down for
    ``down`` rounds, repeating.  Outage rounds still tick (boards decay,
    the round counter advances) — exactly what a crashed-and-recovering
    fleet observes.
    """

    def __init__(self, down: int, up: int):
        self.down = down
        self.up = up

    def __call__(self, rnd, roster, rng):
        return None if rnd % (self.up + self.down) < self.up else frozenset()


# --------------------------------------------------------------------- #
# Registry, spec parsing, canonicalisation
# --------------------------------------------------------------------- #


def _prob(name: str):
    def convert(value) -> float:
        try:
            out = float(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"scheduler arg {name} must be a number, got {value!r}")
        if not (0.0 < out <= 1.0):
            raise ConfigurationError(f"scheduler arg {name} must be in (0, 1], got {out}")
        return out

    return convert


def _positive_int(name: str):
    def convert(value) -> int:
        try:
            out = int(value)
        except (TypeError, ValueError):
            raise ConfigurationError(f"scheduler arg {name} must be an int, got {value!r}")
        if isinstance(value, float) and value != out:
            raise ConfigurationError(f"scheduler arg {name} must be an int, got {value!r}")
        if out < 1:
            raise ConfigurationError(f"scheduler arg {name} must be >= 1, got {out}")
        return out

    return convert


#: name -> (ordered (param, converter) signature, scheduler class).
SCHEDULERS: Dict[str, Tuple[Tuple, type]] = {
    "synchronous": ((), SynchronousScheduler),
    "semi_synchronous": ((("p", _prob("p")),), SemiSynchronousScheduler),
    "adversarial": ((("window", _positive_int("window")),), AdversarialScheduler),
    "crash_recovery": (
        (("down", _positive_int("down")), ("up", _positive_int("up"))),
        CrashRecoveryScheduler,
    ),
}

_SPEC_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\(\s*(.*?)\s*\))?\s*$")


def _format_value(value) -> str:
    """Canonical textual form of a bound arg (ints stay ints; floats use
    ``repr``, the shortest round-tripping form)."""
    return repr(value)


@dataclass(frozen=True)
class SchedulerSpec:
    """A parsed, validated scheduler designation.

    ``args`` is the full signature-ordered binding (no defaults exist —
    every parameter of a parameterised scheduler is explicit), so two
    specs are equal iff they build behaviourally identical schedulers.
    """

    name: str
    args: Tuple[Tuple[str, Union[int, float]], ...] = ()

    def canonical(self) -> str:
        """The canonical spec string (what keys, records, and JSON use)."""
        if not self.args:
            return self.name
        inner = ",".join(f"{k}={_format_value(v)}" for k, v in self.args)
        return f"{self.name}({inner})"

    def build(self) -> Scheduler:
        """A fresh scheduler instance (stateful ones must not be shared
        between runs)."""
        _, cls = SCHEDULERS[self.name]
        return cls(**dict(self.args))


def parse_scheduler(text: str) -> SchedulerSpec:
    """Parse a scheduler spec string into a validated :class:`SchedulerSpec`.

    Accepts the canonical named form (``crash_recovery(down=2,up=6)``),
    positional arguments in signature order (``crash_recovery(2,6)``),
    or a mix (positional before named, like Python calls).
    """
    if isinstance(text, SchedulerSpec):
        return text
    if not isinstance(text, str):
        raise ConfigurationError(
            f"scheduler spec must be a string, got {type(text).__name__}"
        )
    match = _SPEC_RE.match(text)
    if not match:
        raise ConfigurationError(f"malformed scheduler spec {text!r}")
    name, argtext = match.group(1), match.group(2)
    if name not in SCHEDULERS:
        raise ConfigurationError(
            f"unknown scheduler {name!r} (choose from: {', '.join(sorted(SCHEDULERS))})"
        )
    signature, _ = SCHEDULERS[name]
    tokens = [t.strip() for t in argtext.split(",") if t.strip()] if argtext else []
    if len(tokens) > len(signature):
        raise ConfigurationError(
            f"scheduler {name} takes {len(signature)} arg(s), got {len(tokens)}"
        )
    bound: Dict[str, str] = {}
    positional = True
    for i, token in enumerate(tokens):
        if "=" in token:
            positional = False
            key, _, raw = token.partition("=")
            key = key.strip()
            if key not in {p for p, _ in signature}:
                raise ConfigurationError(
                    f"scheduler {name} has no arg {key!r} "
                    f"(signature: {', '.join(p for p, _ in signature)})"
                )
            if key in bound:
                raise ConfigurationError(f"scheduler arg {key!r} given twice")
            bound[key] = raw.strip()
        else:
            if not positional:
                raise ConfigurationError(
                    f"positional scheduler arg after a named one in {text!r}"
                )
            param = signature[i][0]
            bound[param] = token
    missing = [p for p, _ in signature if p not in bound]
    if missing:
        raise ConfigurationError(
            f"scheduler {name} missing arg(s): {', '.join(missing)}"
        )
    args = tuple((param, convert(bound[param])) for param, convert in signature)
    return SchedulerSpec(name, args)


def canonical_scheduler(value: Union[None, str, SchedulerSpec, Scheduler]) -> str:
    """The canonical spec string for any scheduler designation.

    ``None`` means the synchronous default.  Callables that are not
    registry-built fall back to a ``callable:``-prefixed qualified name —
    usable for direct solver calls but rejected by the serializable
    Scenario layer (like bare-callable adversary strategies).
    """
    if value is None:
        return "synchronous"
    if isinstance(value, (str, SchedulerSpec)):
        return parse_scheduler(value).canonical()
    if isinstance(value, SynchronousScheduler):
        return "synchronous"
    if isinstance(value, SemiSynchronousScheduler):
        return SchedulerSpec("semi_synchronous", (("p", float(value.p)),)).canonical()
    if isinstance(value, AdversarialScheduler):
        return SchedulerSpec("adversarial", (("window", int(value.window)),)).canonical()
    if isinstance(value, CrashRecoveryScheduler):
        return SchedulerSpec(
            "crash_recovery", (("down", int(value.down)), ("up", int(value.up)))
        ).canonical()
    if callable(value):
        return "callable:" + getattr(value, "__qualname__", repr(value))
    raise ConfigurationError(f"not a scheduler designation: {value!r}")


def build_scheduler(value: Union[None, str, SchedulerSpec, Scheduler]) -> Scheduler:
    """A ready-to-run scheduler instance for any designation.

    Strings and specs build fresh instances; ``None`` builds the
    synchronous scheduler; scheduler callables pass through unchanged
    (the caller owns their state lifecycle).
    """
    if value is None:
        return SynchronousScheduler()
    if isinstance(value, (str, SchedulerSpec)):
        return parse_scheduler(value).build()
    if callable(value):
        return value
    raise ConfigurationError(f"not a scheduler designation: {value!r}")
