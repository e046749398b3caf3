"""Declarative scenarios: one serializable object from "what to run" to records.

The paper's Table 1 is a grid of ``{algorithm × graph × f × adversary ×
start}`` cells.  This module makes that grid a first-class, declarative
API instead of four divergent entry layers:

* :class:`Scenario` — a frozen, canonically-serializable description of
  **one** solver invocation: algorithm (Table 1 serial or solver name),
  graph (a :class:`~repro.graphs.specs.GraphSpec` or a concrete graph),
  Byzantine budget ``f`` (an int or ``"max"`` for the row's bound),
  adversary strategy + seed, Byzantine placement, and an optional round
  budget.  ``Scenario.key()`` is *definitionally* the run-store cell key
  — the scenario that describes a cell addresses its cache entry — and
  ``to_dict()/from_dict()`` round-trip through JSON without perturbing
  the key, so a scenario in a file, a scenario in a sweep, and a cell in
  a store are the same object in three positions.

* :class:`ScenarioGrid` — an explicit scenario list with a declarative
  builder (:func:`grid`) that expands ``rows × graphs × strategies × f ×
  schedulers × seeds`` deterministically; its scenarios go to
  :func:`~repro.analysis.experiments.execute_plan` as they are.
  ``grid()`` → :meth:`ScenarioGrid.run` → ``execute_plan`` is the one
  way to build and run a sweep; three presets cover Table 1, its
  tolerance bounds and its growth in n (:func:`table1_grid`,
  :func:`tolerance_grid`, and :func:`scaling_grid`, which zips ``f``
  with the graphs where :func:`grid` only crosses axes).

* :class:`ResultSet` — the record-list type every sweep returns.  It IS
  a ``list`` of flat record dicts (so every existing consumer keeps
  working) plus the combinators the loose ``List[Dict]`` contract never
  had: ``filter``, ``group_by``, ``summarize``, ``success_rate``,
  ``table`` and ``to_json``.

Execution pipeline
------------------
``Scenario`` → ``execute_plan`` → records: a scenario *is* the cell, so
there is no compile step.  Everything the plan executor does — process
fan-out with spec-shipped graphs, streaming persistence into a
:class:`~repro.analysis.store.RunStore`, crash resume, warm-store
zero-solver-call replays — applies to every scenario unchanged.  The
constructor is the one field validator: each rejected value raises a
:class:`~repro.errors.ValidationError` naming its field, whether the
scenario came from Python, a grid or JSON.

Default-value canonicalisation keeps old caches warm: :data:`AXES`
names every axis added to the original cell, each with its default
(the only value historical sweeps could express), and only the
non-default ones (:meth:`Scenario.axes`) reach the hashed key payload,
failure records, ``to_dict`` and the solver call.  A default-valued
scenario therefore keys bit-identically to the same work before its
axes existed.

JSON scenario files
-------------------
``repro scenario FILE.json`` accepts one scenario object or a list::

    {"algorithm": 5, "graph": {"family": "random_connected",
                               "args": {"n": 9, "seed": 0}},
     "strategy": "squatter", "f": "max", "seed": 0}

which hits exactly the same store cell as the equivalent ``repro table1``
invocation.  An optional ``"scheduler"`` field selects a non-default
activation model (``"semi_synchronous(p=0.5)"`` etc. — see
:mod:`repro.sim.schedulers` and EXPERIMENTS.md); like every axis, its
default canonicalises out of both the JSON form and the store key.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .analysis.experiments import (
    KINDS,
    ExecutionPolicy,
    cell_key_of,
    execute_plan,
)
from .analysis.faults import FaultPlan
from .analysis.metrics import success_rate as _success_rate
from .analysis.metrics import summarize as _summarize
from .analysis.store import RunStore
from .analysis.tables import infer_columns, render_table
from .byzantine import STRATEGIES
from .core.runner import TABLE1, Table1Row, get_row, row_applicable
from .errors import ConfigurationError, GraphStructureError, ValidationError
from .graphs.port_labeled import PortLabeledGraph
from .graphs.specs import (
    INT_DIGITS, INT_LIMIT, GraphSpec, canonicalize_spec, resolve_spec, safe_repr, spec_of,
)
from .sim.schedulers import canonical_scheduler

__all__ = [
    "AXES",
    "KINDS",
    "PLACEMENTS",
    "ResultSet",
    "Scenario",
    "ScenarioGrid",
    "grid",
    "run_scenarios",
    "scaling_grid",
    "table1_grid",
    "tolerance_grid",
]

#: Byzantine placements understood by the drivers.
PLACEMENTS = ("lowest", "highest", "random")

#: The axes added to the original ``{kind, algorithm, graph, strategy,
#: f, seed}`` cell, in the order records and ``to_dict`` list them, each
#: with the default at which it drops out of store keys, records and
#: ``to_dict`` so that old stores stay warm (:meth:`Scenario.axes`).  A
#: new axis is one entry here and a ``Scenario`` field defaulting to it.
AXES: Dict[str, Any] = {"placement": "lowest", "rounds": None, "scheduler": "synchronous"}

#: ``to_dict`` format version (bumped only if the serialized shape
#: changes incompatibly; independent of the record-schema version).
FORMAT_VERSION = 1

#: Every key a serialized scenario may carry (``from_dict`` rejects the
#: rest by name — untrusted payloads must not silently drop typos).
_SCENARIO_FIELDS = frozenset({
    "version", "kind", "algorithm", "graph", "strategy", "f",
    "placement", "seed", "rounds", "scheduler",
})


# --------------------------------------------------------------------- #
# Result sets
# --------------------------------------------------------------------- #

class ResultSet(List[Dict]):
    """A list of flat record dicts with aggregation combinators.

    Subclasses ``list`` so the historical ``List[Dict]`` contract —
    iteration, indexing, ``==`` against plain lists, ``json.dumps`` —
    holds verbatim; the combinators are additive.  All derived sets
    preserve record order (the executor's submission order).
    """

    def filter(self, pred: Optional[Callable[[Dict], bool]] = None, **equals) -> "ResultSet":
        """Records matching a predicate and/or keyword equality tests.

        ``rs.filter(strategy="squatter", success=True)`` keeps records
        whose fields equal the given values; a callable ``pred`` composes
        with them (both must hold).
        """
        out = ResultSet()
        for rec in self:
            if pred is not None and not pred(rec):
                continue
            if all(rec.get(k) == v for k, v in equals.items()):
                out.append(rec)
        return out

    def group_by(self, key: Union[str, Callable[[Dict], object]]) -> Dict[object, "ResultSet"]:
        """Partition into ``{key value -> ResultSet}`` (insertion order)."""
        fn = key if callable(key) else (lambda rec: rec.get(key))
        groups: Dict[object, ResultSet] = {}
        for rec in self:
            groups.setdefault(fn(rec), ResultSet()).append(rec)
        return groups

    def summarize(self, group_by: str, missing=None) -> List[Dict]:
        """Per-group success rate and round statistics
        (:func:`repro.analysis.metrics.summarize`).  ``missing`` labels
        records lacking the key — e.g. ``summarize("scheduler",
        missing="synchronous")``, since default-valued axes omit their
        key from records for cache compatibility."""
        return _summarize(list(self), group_by, missing=missing)

    def success_rate(self) -> float:
        """Fraction of successful records among those that *ran*
        (``nan`` when nothing ran — see
        :func:`repro.analysis.metrics.success_rate`).  Quarantined
        failure records (``failed=True``) are excluded from the rate
        entirely — numerator and denominator — and surface through
        :meth:`failures` instead."""
        return _success_rate(self)

    def failures(self) -> "ResultSet":
        """The quarantined failure records (``failed=True``).

        These are cells the executor gave up on after exhausting their
        retry budget — structured placeholders carrying ``reason``,
        ``error``, ``attempts``, and the cell's content ``key`` — as
        opposed to runs that executed and merely did not disperse
        (``success=False`` without ``failed``).  Empty on a healthy
        sweep."""
        return self.filter(lambda rec: bool(rec.get("failed")))

    def columns(self) -> List[str]:
        """Ordered union of record keys (first-seen order; the same
        inference :func:`render_table` applies when given no columns)."""
        return infer_columns(self)

    def table(self, columns: Optional[Sequence[str]] = None,
              title: Optional[str] = None) -> str:
        """Render as an aligned monospace table
        (:func:`repro.analysis.tables.render_table`)."""
        return render_table(self, columns=columns, title=title)

    def to_json(self, path: Optional[str] = None, indent: Optional[int] = None) -> str:
        """The records as a JSON array; optionally also written to ``path``."""
        text = json.dumps(list(self), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.write("\n")
        return text

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        """Parse a JSON array of records back into a :class:`ResultSet`."""
        data = json.loads(text)
        if not isinstance(data, list):
            raise ConfigurationError("a ResultSet JSON payload must be an array")
        return cls(data)


# --------------------------------------------------------------------- #
# Normalisation helpers
# --------------------------------------------------------------------- #

_THEOREM_NAME = re.compile(r"(?:solve_)?theorem[_ ]?(\d+)$")


def _normalize_algorithm(algorithm: Union[int, str, Table1Row]) -> int:
    """Resolve an algorithm designator to its Table 1 serial.

    Accepts a serial (int or decimal string), a registered solver name
    (``"solve_theorem4"`` / ``"theorem4"`` — resolved by *theorem*
    number, which differs from the serial for rows 3–7), or a registry
    :class:`Table1Row`.
    """
    if isinstance(algorithm, Table1Row):
        # Only the registry's own rows resolve: a hand-built Table1Row
        # (custom solver) would otherwise be silently *replaced* by the
        # registry row sharing its serial — wrong solver, wrong cache key.
        try:
            registered = get_row(algorithm.serial)
        except KeyError:
            registered = None
        if registered is not algorithm:
            raise ConfigurationError(
                f"Table1Row with serial {algorithm.serial} is not the registry's "
                f"row; scenarios only run registered algorithms (call its "
                f"solver directly)"
            )
        algorithm = algorithm.serial
    if isinstance(algorithm, bool):
        raise ConfigurationError(f"algorithm must be a serial or name, not {algorithm!r}")
    if isinstance(algorithm, int) and -INT_LIMIT < algorithm < INT_LIMIT:
        try:
            get_row(algorithm)
        except KeyError as exc:
            raise ConfigurationError(exc.args[0])
        return algorithm
    if isinstance(algorithm, str):
        token = algorithm.strip().lower()
        # isdecimal, not isdigit: int() refuses digits such as "²".
        if token.isdecimal() and len(token) <= INT_DIGITS:
            return _normalize_algorithm(int(token))
        match = _THEOREM_NAME.fullmatch(token)
        if match:
            theorem = int(match.group(1))
            for row in TABLE1:
                if row.theorem == theorem:
                    return row.serial
            raise ConfigurationError(f"no Table 1 row implements theorem {theorem}")
    raise ConfigurationError(
        f"unknown algorithm {safe_repr(algorithm)} (use a Table 1 serial 1..7 "
        f"or a solver name like 'solve_theorem4')"
    )


def _named(field: str, normalize: Callable[..., object], value: object) -> object:
    """``normalize(value)``, re-raising its :class:`ConfigurationError`
    as a :class:`~repro.errors.ValidationError` naming ``field``."""
    try:
        return normalize(value)
    except ConfigurationError as exc:
        raise ValidationError(field, str(exc)) from exc


def _hashable(value):
    """Recursively convert JSON containers to hashable tuples so a spec
    deserialized from JSON (lists for tuples) can index the per-process
    resolution memo."""
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _hashable(v)) for k, v in value.items())
    return value


def _graph_from_dict(payload: object) -> Union[PortLabeledGraph, GraphSpec]:
    """Deserialize the ``graph`` slot of a scenario dict; a slot of the
    wrong shape raises :class:`~repro.errors.ValidationError` naming
    ``graph``.

    ``{"family": ..., "args": {...}}`` becomes a :class:`GraphSpec`,
    which the :class:`Scenario` constructor canonicalizes without
    building the graph (partially-given args pick up the generator's
    defaults, so the key is the same as for a directly generated
    graph).  ``{"port_table": ...}`` rebuilds a hand-built graph through
    the validating constructor.
    """
    if not isinstance(payload, dict):
        raise ValidationError(
            "graph", f"must be a JSON object, got {type(payload).__name__}"
        )
    if "family" in payload:
        family = payload["family"]
        if not isinstance(family, str):
            raise ValidationError(
                "graph",
                f"graph spec 'family' must be a string, got {type(family).__name__}",
            )
        args = payload.get("args", {})
        if not isinstance(args, dict):
            raise ValidationError("graph", "graph spec 'args' must be an object")
        return GraphSpec(family, tuple((k, _hashable(v)) for k, v in args.items()))
    if "port_table" in payload:
        table = payload["port_table"]
        try:
            port_map = {
                int(u): {int(p): (int(v), int(q)) for p, (v, q) in row.items()}
                for u, row in table.items()
            }
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(
                "graph",
                f"malformed port_table (expected node -> port -> [dest, in_port]): {exc}",
            )
        try:
            return PortLabeledGraph(port_map)
        except GraphStructureError as exc:
            raise ValidationError("graph", f"invalid port_table: {exc}")
    raise ValidationError(
        "graph",
        "a scenario graph must be {'family': ..., 'args': {...}} or "
        "{'port_table': {...}}",
    )


def _graph_to_dict(graph: Union[PortLabeledGraph, GraphSpec]) -> Dict:
    """Serialize a scenario's graph slot (inverse of :func:`_graph_from_dict`)."""
    spec = graph if isinstance(graph, GraphSpec) else spec_of(graph)
    if spec is not None:
        return {"family": spec.family, "args": {k: v for k, v in spec.args}}
    table = graph.port_table()
    return {
        "port_table": {
            str(u): {str(p): list(vq) for p, vq in row.items()}
            for u, row in table.items()
        }
    }


# --------------------------------------------------------------------- #
# Scenario
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class Scenario:
    """One declarative solver invocation: one sweep cell.

    Parameters
    ----------
    algorithm:
        Table 1 serial (1–7), a solver name (``"solve_theorem4"``), or a
        registry row; normalised to the serial.
    graph:
        A concrete :class:`PortLabeledGraph` or a
        :class:`~repro.graphs.specs.GraphSpec` recipe.  Generator-built
        graphs serialize as their spec; hand-built graphs as their port
        table.
    strategy:
        Adversary strategy registry name (serializable scenarios only
        speak registry names; pass callables to the solvers directly if
        you need them).
    f:
        Byzantine budget: an int, or ``"max"`` for the row's tolerance
        bound on this graph.
    kind:
        Record shape: ``"table1"`` (default), ``"tolerance"``
        (rejection-aware), or ``"scaling"`` (adds ``m``).
    placement:
        Which IDs the adversary corrupts: ``"lowest"`` (default),
        ``"highest"``, or ``"random"`` (driven by ``seed``).
    seed:
        Run seed (drives the adversary streams, random placement, and
        the scheduler's dedicated RNG stream).
    rounds:
        Optional round budget capping the *simulated* phase below the
        solver's own bound; an exhausted budget records
        ``success=False``.
    scheduler:
        Activation-scheduler spec string (``"synchronous"`` default,
        ``"semi_synchronous(p=0.5)"``, ``"adversarial(window=4)"``,
        ``"crash_recovery(down=2,up=6)"`` — see
        :mod:`repro.sim.schedulers`); canonicalised on construction.

    The constructor validates every field and raises
    :class:`~repro.errors.ValidationError` naming the first bad one.
    ``key()`` is definitionally the run-store key of this cell, and
    only :meth:`axes` joins the hash — a default-valued scenario
    addresses exactly the cache entry it had before the non-default
    axes existed.
    """

    algorithm: Union[int, str, Table1Row]
    graph: Union[PortLabeledGraph, GraphSpec]
    strategy: str = "squatter"
    f: Union[int, str] = "max"
    kind: str = "table1"
    placement: str = AXES["placement"]
    seed: int = 0
    rounds: Optional[int] = AXES["rounds"]
    scheduler: str = AXES["scheduler"]

    def __post_init__(self):
        object.__setattr__(
            self, "algorithm", _named("algorithm", _normalize_algorithm, self.algorithm)
        )
        if self.kind not in KINDS:
            raise ValidationError(
                "kind", f"unknown scenario kind {self.kind!r} (choose from {KINDS})"
            )
        if isinstance(self.graph, GraphSpec):
            # A hand-written spec may omit defaults or reorder args; the
            # canonical (fully-bound, signature-ordered) form keys
            # identically to the spec a generator tags its output with —
            # otherwise one cell would split across two store keys.
            object.__setattr__(self, "graph", _named("graph", canonicalize_spec, self.graph))
        elif not isinstance(self.graph, PortLabeledGraph):
            raise ValidationError(
                "graph", f"graph must be a PortLabeledGraph or GraphSpec, "
                f"not {type(self.graph).__name__}"
            )
        if not isinstance(self.strategy, str) or self.strategy not in STRATEGIES:
            raise ValidationError(
                "strategy", f"unknown strategy {self.strategy!r} "
                f"(choose from: {', '.join(sorted(STRATEGIES))})"
            )
        f = self.f
        if f is None:
            object.__setattr__(self, "f", "max")
        elif isinstance(f, str):
            if f != "max":
                raise ValidationError("f", f"f must be an int or 'max', got {f!r}")
        elif (isinstance(f, bool) or not isinstance(f, int)
              or not -INT_LIMIT < f < INT_LIMIT):  # else no key spells it
            raise ValidationError("f", f"f must be an int or 'max', got {safe_repr(f)}")
        if self.placement not in PLACEMENTS:
            raise ValidationError(
                "placement",
                f"unknown placement {self.placement!r} (choose from {PLACEMENTS})",
            )
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < INT_LIMIT):
            # True == 1 would alias seed 1's identity under another key.
            raise ValidationError(
                "seed", f"seed must be a non-negative int, got {safe_repr(self.seed)}"
            )
        if self.rounds is not None and (
            isinstance(self.rounds, bool) or not isinstance(self.rounds, int)
            or not 0 <= self.rounds < INT_LIMIT
        ):
            raise ValidationError(
                "rounds",
                f"rounds must be a non-negative int, got {safe_repr(self.rounds)}",
            )
        if not isinstance(self.scheduler, str):
            # Serializable scenarios only speak registry spec strings
            # (like strategies); pass scheduler callables to the solvers
            # directly if you need them.
            raise ValidationError(
                "scheduler",
                f"scheduler must be a spec string, got {type(self.scheduler).__name__}",
            )
        if self.scheduler != AXES["scheduler"]:  # the default is canonical
            object.__setattr__(
                self, "scheduler", _named("scheduler", canonical_scheduler, self.scheduler)
            )

    # -- identity ------------------------------------------------------ #

    def _graph_identity(self):
        """The graph slot's canonical identity: its (fully-bound) spec
        when it has one, the graph itself otherwise.  A spec payload and
        the graph it resolves to describe the same work — and produce
        the same key — so they must compare equal."""
        if isinstance(self.graph, GraphSpec):
            return self.graph
        spec = spec_of(self.graph)
        return spec if spec is not None else self.graph

    def _identity(self) -> Tuple:
        return (self.kind, self.algorithm, self._graph_identity(),
                self.strategy, self.f, self.placement, self.seed, self.rounds,
                self.scheduler)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    # -- derived views ------------------------------------------------- #

    def axes(self) -> Dict[str, Any]:
        """The :data:`AXES` this scenario sets away from their defaults,
        in table order: what joins its store key, its failure records,
        its ``to_dict`` and its solver call."""
        out: Dict[str, Any] = {}
        for name, default in AXES.items():
            value = getattr(self, name)
            if value != default:
                out[name] = value
        return out

    @property
    def serial(self) -> int:
        """The normalised Table 1 serial."""
        return self.algorithm  # type: ignore[return-value]

    @property
    def row(self) -> Table1Row:
        """The registry row this scenario runs."""
        return get_row(self.serial)

    def resolved_graph(self) -> PortLabeledGraph:
        """The concrete graph (spec payloads resolve through the
        per-process memo cache)."""
        if isinstance(self.graph, GraphSpec):
            return resolve_spec(self.graph)
        return self.graph

    @property
    def f_needs_graph(self) -> bool:
        """Whether :meth:`resolved_f`, and so :meth:`key`, resolves the
        graph: ``f="max"`` outside the table1 kind is the row's bound on
        it."""
        return self.f == "max" and self.kind != "table1"

    def resolved_f(self) -> Optional[int]:
        """The cell-level ``f``: ``"max"`` stays ``None`` for the table1
        kind (the historical "row's bound" marker, cacheable as such) and
        resolves to the row's concrete bound for the other kinds (their
        executors need an explicit int)."""
        if self.f_needs_graph:
            return self.row.f_max(self.resolved_graph())
        return None if self.f == "max" else self.f  # type: ignore[return-value]

    def applicable(self) -> bool:
        """Whether the row's graph-class restriction admits this graph."""
        return row_applicable(self.row, self.resolved_graph())

    # -- execution ----------------------------------------------------- #

    def key(self) -> str:
        """The content-addressed run-store key of this cell.

        Definitionally :func:`~repro.analysis.experiments.cell_key_of` of
        the scenario — a scenario *names* its cache entry.
        """
        return cell_key_of(self)

    def run(
        self,
        workers: Optional[int] = None,
        store: Optional[RunStore] = None,
        resume: bool = True,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> ResultSet:
        """Execute this scenario through the plan executor (so stores,
        resume, workers, and fault tolerance behave exactly as in a
        sweep)."""
        return run_scenarios([self], workers=workers, store=store,
                             resume=resume, policy=policy, faults=faults)

    # -- serialization ------------------------------------------------- #

    def to_dict(self) -> Dict:
        """Canonical JSON-safe form; ``from_dict`` inverts it and the
        round trip is a fixed point of :meth:`key`."""
        out: Dict = {
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "algorithm": self.serial,
            "graph": _graph_to_dict(self.graph),
            "strategy": self.strategy,
            "f": self.f,
            "placement": self.placement,
            "seed": self.seed,
        }
        out.update(self.axes())
        return out

    @classmethod
    def from_dict(cls, payload: Dict) -> "Scenario":
        """Build a scenario from its dict form (tolerant of omitted
        defaults, so hand-written JSON files stay short).

        Hardened for untrusted input: a payload that is not an object
        with string field names, a version other than the ``int``
        :data:`FORMAT_VERSION`, an unknown or missing key and a graph
        slot of the wrong shape are rejected here, every field value by
        the constructor — each as a
        :class:`~repro.errors.ValidationError` naming the offending
        field, which the serve subsystem maps to a 400 response with the
        field in the body.
        """
        if not isinstance(payload, dict):
            raise ValidationError("scenario", "must be a JSON object")
        if not all(isinstance(name, str) for name in payload):
            raise ValidationError("scenario", "field names must be strings")
        version = payload.get("version", FORMAT_VERSION)
        # ``True == 1`` and ``1.0 == 1``: equality alone would take them.
        if type(version) is not int or version != FORMAT_VERSION:
            raise ValidationError(
                "version", f"unsupported scenario format version {safe_repr(version)}"
            )
        unknown = set(payload) - _SCENARIO_FIELDS
        if unknown:
            raise ValidationError(
                sorted(unknown)[0],
                f"unknown scenario field(s): {', '.join(sorted(unknown))}",
            )
        for required in ("algorithm", "graph"):
            if required not in payload:
                raise ValidationError(
                    required, "required field is missing "
                    "(a scenario needs 'algorithm' and 'graph')"
                )
        if "f" in payload and payload["f"] is None:
            # The constructor reads f=None as "max"; a JSON null is not
            # a spelling of the bound.
            raise ValidationError("f", "f must be an int or 'max', got None")
        fields = {name: value for name, value in payload.items() if name != "version"}
        fields["graph"] = _graph_from_dict(payload["graph"])
        return cls(**fields)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON text (sorted keys, so equal scenarios serialize
        byte-identically)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """One-line human-readable summary (CLI output)."""
        f = self.f if isinstance(self.f, int) else "max"
        extras = "".join(
            f", rounds<={value}" if name == "rounds" else f", {name}={value}"
            for name, value in self.axes().items()
        )
        g = self.graph if isinstance(self.graph, GraphSpec) else spec_of(self.graph)
        graph_desc = (
            f"{g.family}({', '.join(f'{k}={v}' for k, v in g.args)})"
            if g is not None else f"hand-built(n={self.resolved_graph().n})"
        )
        return (
            f"row {self.serial} on {graph_desc}, f={f}, "
            f"strategy={self.strategy}, seed={self.seed}, kind={self.kind}{extras}"
        )


# --------------------------------------------------------------------- #
# Grids
# --------------------------------------------------------------------- #

def run_scenarios(
    scenarios: Sequence[Scenario],
    workers: Optional[int] = None,
    store: Optional[RunStore] = None,
    resume: bool = True,
    policy: Optional[ExecutionPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> ResultSet:
    """Execute the scenarios as one plan and flatten the records.

    The shared engine behind :meth:`Scenario.run` and
    :meth:`ScenarioGrid.run`; inherits every executor guarantee (order
    determinism, streaming store writes, warm-store zero-solver-call
    replays, spec-shipped parallel dispatch, retry/quarantine fault
    tolerance under ``policy``, batched struct-of-arrays execution of
    compatible cells — records byte-identical to per-cell runs).  Quarantined cells surface in the returned set as failure
    records — :meth:`ResultSet.failures` selects them.
    """
    lists = execute_plan(scenarios, workers=workers, store=store,
                         resume=resume, policy=policy, faults=faults)
    return ResultSet(rec for recs in lists for rec in recs)


def _axis(value, name: str) -> Tuple:
    """Normalise one grid axis: scalars (including strings, graphs and
    specs) wrap into a 1-tuple; sequences become tuples.

    An explicitly empty axis raises: a zero-cell grid silently passes
    every ``all(r["success"] ...)`` check downstream, which is exactly
    the vacuous-success bug class the metrics layer already guards
    against.
    """
    if isinstance(value, (str, int, PortLabeledGraph, GraphSpec, Table1Row)):
        return (value,)
    try:
        out = tuple(value)
    except TypeError:
        raise ConfigurationError(f"grid axis {name!r} must be a value or sequence")
    if not out:
        raise ConfigurationError(
            f"grid axis {name!r} is empty — a grid with no cells would "
            f"vacuously succeed"
        )
    return out


@dataclass(frozen=True)
class ScenarioGrid:
    """An explicit, ordered scenario list (what a sweep *is*).

    Construct directly from any scenario sequence, or declaratively with
    :func:`grid`.  A grid is itself serializable (``to_dicts``), names
    its store entries (``keys``), and runs as one plan (``run``).
    """

    scenarios: Tuple[Scenario, ...]

    def __init__(self, scenarios: Sequence[Scenario]):
        scenarios = tuple(scenarios)
        for s in scenarios:
            if not isinstance(s, Scenario):
                raise ConfigurationError(
                    f"ScenarioGrid holds Scenario values, not {type(s).__name__}"
                )
        object.__setattr__(self, "scenarios", scenarios)

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self.scenarios)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __getitem__(self, index):
        got = self.scenarios[index]
        return ScenarioGrid(got) if isinstance(index, slice) else got

    def filter(self, pred: Callable[[Scenario], bool]) -> "ScenarioGrid":
        """The sub-grid of scenarios satisfying ``pred`` (order kept)."""
        return ScenarioGrid([s for s in self.scenarios if pred(s)])

    def __add__(self, other: "ScenarioGrid") -> "ScenarioGrid":
        """Union of two grids: ``self``'s scenarios then ``other``'s new
        ones, first-appearance order, duplicates dropped by scenario
        identity (same identity ⇒ same store key, so running a duplicate
        would double-count one cell).  See :meth:`concat` for n-ary use.
        """
        if not isinstance(other, ScenarioGrid):
            return NotImplemented
        return ScenarioGrid.concat([self, other])

    @classmethod
    def concat(cls, grids: Sequence["ScenarioGrid"]) -> "ScenarioGrid":
        """Union of several grids, order-preserving and deduplicated.

        The declarative :func:`grid` builder only expresses *products* of
        axes; suites whose axes genuinely co-vary (e.g. a tolerance sweep
        whose ``f`` range depends on the row's own bound) are unions of
        per-row products.  Scenario identity — not object identity —
        drives the dedupe, so overlapping sub-grids merge cleanly.
        """
        merged = dict.fromkeys(s for g in grids for s in g)
        return cls(list(merged))

    def applicable(self) -> "ScenarioGrid":
        """Drop scenarios whose row does not admit their graph.

        Applicability is memoised per (serial, canonical graph identity):
        the row-1 quotient-isomorphism check is an O(n·m) refinement, and
        a grid crossing strategies/f/seeds repeats each (row, graph) pair
        many times.  The canonical identity (spec, or the graph itself)
        hits across the fresh spec objects each Scenario holds, where an
        ``id()`` key would not.
        """
        memo: Dict[Tuple, bool] = {}

        def ok(s: Scenario) -> bool:
            key = (s.serial, s._graph_identity())
            if key not in memo:
                memo[key] = s.applicable()
            return memo[key]

        return self.filter(ok)

    def keys(self) -> List[str]:
        """The run-store keys this grid reads/writes, in order."""
        return [s.key() for s in self.scenarios]

    def run(
        self,
        workers: Optional[int] = None,
        store: Optional[RunStore] = None,
        resume: bool = True,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> ResultSet:
        """Execute the whole grid as one plan (see :func:`run_scenarios`)."""
        return run_scenarios(self.scenarios, workers=workers, store=store,
                             resume=resume, policy=policy, faults=faults)

    def to_dicts(self) -> List[Dict]:
        """JSON-safe form: the scenario dicts, in order."""
        return [s.to_dict() for s in self.scenarios]

    @classmethod
    def from_dicts(cls, payload: Sequence[Dict]) -> "ScenarioGrid":
        """Build a grid from scenario dicts.

        Validation failures re-raise naming the failing entry and field
        (``scenarios[3].f``) so callers of the HTTP sweep endpoint see
        exactly which element of their array is bad.
        """
        if isinstance(payload, (str, bytes)) or not isinstance(payload, Sequence):
            raise ValidationError(
                "scenarios", "must be an array of scenario objects"
            )
        scenarios = []
        for i, entry in enumerate(payload):
            try:
                scenarios.append(Scenario.from_dict(entry))
            except ValidationError as exc:
                field = (
                    f"scenarios[{i}]" if exc.field == "scenario"
                    else f"scenarios[{i}].{exc.field}"
                )
                raise ValidationError(field, exc.reason)
        return cls(scenarios)


def grid(
    rows: Optional[Sequence[Union[int, str, Table1Row]]] = None,
    graphs: Union[PortLabeledGraph, GraphSpec, Sequence] = (),
    strategies: Union[str, Sequence[str]] = ("squatter",),
    f: Union[int, str, Sequence] = "max",
    schedulers: Union[str, Sequence[str]] = (AXES["scheduler"],),
    seeds: Union[int, Sequence[int]] = (0,),
    kind: str = "table1",
    placement: str = AXES["placement"],
    rounds: Optional[int] = AXES["rounds"],
    applicable_only: bool = True,
) -> ScenarioGrid:
    """Declaratively expand a scenario grid.

    Axes (``rows``, ``graphs``, ``strategies``, ``f``, ``schedulers``,
    ``seeds``) accept a scalar or a sequence; ``rows=None`` means every
    Table 1 row.  Expansion order is fixed and documented: **rows, then
    graphs, then strategies, then f, then schedulers, then seeds** (rows
    outermost, seeds innermost).  The scheduler axis sits where its
    singleton default leaves record streams and store keys exactly those
    of a grid without it.  ``schedulers`` takes activation-scheduler
    spec strings (:mod:`repro.sim.schedulers`).  ``applicable_only``
    (default) drops scenarios whose row does not admit their graph.

    The rows × strategies matrix at each row's bound is
    ``grid(rows=..., graphs=g, strategies=[...], f="max")``; the
    rows × schedulers matrix crosses ``schedulers=[...]`` the same way.
    """
    row_axis = tuple(r.serial for r in TABLE1) if rows is None else _axis(rows, "rows")
    graph_axis = _axis(graphs, "graphs")
    strategy_axis = _axis(strategies, "strategies")
    f_axis = _axis("max" if f is None else f, "f")
    scheduler_axis = _axis(schedulers, "schedulers")
    seed_axis = _axis(seeds, "seeds")
    scenarios = [
        Scenario(
            algorithm=row, graph=graph, strategy=strategy, f=f_value,
            kind=kind, placement=placement, seed=seed, rounds=rounds,
            scheduler=scheduler,
        )
        for row in row_axis
        for graph in graph_axis
        for strategy in strategy_axis
        for f_value in f_axis
        for scheduler in scheduler_axis
        for seed in seed_axis
    ]
    out = ScenarioGrid(scenarios)
    return out.applicable() if applicable_only else out


# --------------------------------------------------------------------- #
# Presets: Table 1, its tolerance bounds and its growth in n
# --------------------------------------------------------------------- #

def table1_grid(
    graph: PortLabeledGraph,
    strategies: Sequence[str],
    seed: int = 0,
    serials: Optional[Sequence[int]] = None,
) -> ScenarioGrid:
    """Table 1 on one graph: every applicable row × strategy at the row's
    tolerance bound, rows in registry order.

    Unlike a direct :func:`grid` call (which rejects empty axes), a
    serial filter matching nothing yields an empty grid.
    """
    strategies = list(strategies)
    serials = None if serials is None else list(serials)
    rows = [
        row.serial for row in TABLE1
        if serials is None or row.serial in serials
    ]
    if not rows or not strategies:
        return ScenarioGrid([])
    return grid(rows=rows, graphs=graph, strategies=strategies,
                f="max", seeds=seed, kind="table1")


def tolerance_grid(
    row: Union[int, str, Table1Row],
    graph: PortLabeledGraph,
    f_values: Sequence[int],
    strategy: str,
    seed: int = 0,
) -> ScenarioGrid:
    """Success vs ``f`` for one row and strategy: out-of-bound values run
    and are *recorded* as rejected, so applicability is deliberately not
    filtered.  An empty ``f_values`` yields an empty grid."""
    f_values = list(f_values)  # may be an iterator; the guard below must not eat it
    if not f_values:
        return ScenarioGrid([])
    return grid(rows=row, graphs=graph, strategies=strategy,
                f=f_values, seeds=seed, kind="tolerance",
                applicable_only=False)


def scaling_grid(
    row: Union[int, str, Table1Row],
    graphs: Sequence[PortLabeledGraph],
    strategy: str,
    seed: int = 0,
) -> ScenarioGrid:
    """Measured rounds vs ``n`` across a graph family: one scenario per
    applicable graph at the row's bound (``f`` is *zipped* with the
    graphs, not crossed — the one sweep :func:`grid` cannot express)."""
    serial = _normalize_algorithm(row)
    table_row = get_row(serial)
    applicable = [g for g in graphs if row_applicable(table_row, g)]
    return ScenarioGrid([
        Scenario(
            algorithm=serial, graph=g,
            f=table_row.f_max(g),
            strategy=strategy, seed=seed, kind="scaling",
        )
        for g in applicable
    ])
