"""Graph specs: name-the-recipe handles for generator-built graphs.

A :class:`GraphSpec` is a tiny picklable value — generator family name
plus the fully-bound call arguments — that deterministically identifies
one generator output.  Every generator in
:mod:`repro.graphs.generators` tags the graphs it returns with their
spec, and :func:`resolve_spec` rebuilds the identical graph from the
tag.

The point is sweep dispatch: shipping a 30-byte spec to a worker process
instead of a pickled ``2m``-entry graph, and memoising resolution
per-process (:data:`_CACHE`), means a 20-cell strategy matrix constructs
each graph **once per worker** instead of once per cell — and the parent
process never serialises the graph at all.  The memo is bounded
(:data:`_CACHE_BUDGET`), so a long-lived ``repro serve`` that keys many
distinct large graphs does not keep them all.  Generators are deterministic
functions of their arguments, so the resolved graph is ``==`` the tagged
original and sweep records stay byte-identical to a serial run.

Hand-built graphs (``PortLabeledGraph(...)``, ``from_networkx``,
``relabel``) carry no spec; sweeps fall back to pickling the graph
itself (cheap now too: CSR-bytes ``__reduce__``).
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import threading
from collections import OrderedDict
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from ..errors import ConfigurationError
from .port_labeled import PortLabeledGraph

__all__ = [
    "GraphSpec",
    "spec_of",
    "resolve_spec",
    "clear_spec_cache",
    "register_family",
    "canonical_spec",
    "canonicalize_spec",
    "graph_fingerprint",
]


class GraphSpec(NamedTuple):
    """A deterministic recipe for one generator-built graph.

    ``family`` is the generator's registered name; ``args`` is the fully
    bound ``(parameter, value)`` tuple (defaults applied), so two calls
    that produce the same graph produce the same spec regardless of how
    the arguments were spelled.
    """

    family: str
    args: Tuple[Tuple[str, object], ...]


#: family name -> generator callable (populated by ``@_tagged`` in
#: :mod:`repro.graphs.generators` at import time).
_REGISTRY: Dict[str, Callable[..., PortLabeledGraph]] = {}

#: Per-process memo: spec -> resolved graph, least recently resolved
#: first.  In a sweep worker this is exactly the "construct each graph
#: once per worker" cache.  Entries are immutable graphs, safe to share
#: across cells and threads.
_CACHE: OrderedDict[GraphSpec, PortLabeledGraph] = OrderedDict()
_CACHE_LOCK = threading.Lock()
#: Nodes + edges of the graphs in :data:`_CACHE`.
_cache_held = 0

#: The most nodes + edges the memo's graphs may total (a CSR graph takes
#: ~130 bytes per node or edge, so ~13 MB).  Past it the least recently
#: resolved spec is evicted first; the latest is always kept.  A graph
#: large enough to evict costs far more to simulate than to rebuild.
_CACHE_BUDGET = 100_000


def register_family(name: str, fn: Callable[..., PortLabeledGraph]) -> None:
    """Register ``fn`` as the builder for ``name`` specs."""
    _REGISTRY[name] = fn


def spec_of(graph: PortLabeledGraph) -> Optional[GraphSpec]:
    """The generator spec ``graph`` was built from, or ``None``."""
    return graph._spec


def tagged(fn: Callable[..., PortLabeledGraph]) -> Callable[..., PortLabeledGraph]:
    """Decorator: register a generator and tag its outputs with their spec."""
    sig = inspect.signature(fn)
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        _check_args(sig, bound.arguments)
        graph = fn(*bound.args, **bound.kwargs)
        graph._spec = GraphSpec(name, tuple(bound.arguments.items()))
        return graph

    register_family(name, wrapper)
    return wrapper


def resolve_spec(spec: GraphSpec) -> PortLabeledGraph:
    """Rebuild (or fetch from the per-process memo) the graph for ``spec``."""
    global _cache_held
    with _CACHE_LOCK:
        graph = _CACHE.get(spec)
        if graph is not None:
            _CACHE.move_to_end(spec)
            return graph
    if spec.family not in _REGISTRY:
        # A worker may resolve before anything imported the generators.
        from . import generators  # noqa: F401  (import populates the registry)
    fn = _REGISTRY.get(spec.family)
    if fn is None:
        raise ConfigurationError(f"unknown graph family {spec.family!r}")
    graph = fn(**dict(spec.args))
    with _CACHE_LOCK:
        if spec not in _CACHE:  # another thread may have resolved it meanwhile
            _CACHE[spec] = graph
            _cache_held += graph.n + graph.m
        while _cache_held > _CACHE_BUDGET and len(_CACHE) > 1:
            _, evicted = _CACHE.popitem(last=False)
            _cache_held -= evicted.n + evicted.m
    return graph


def clear_spec_cache() -> None:
    """Drop the per-process memo (tests)."""
    global _cache_held
    with _CACHE_LOCK:
        _CACHE.clear()
        _cache_held = 0


def canonicalize_spec(spec: GraphSpec) -> GraphSpec:
    """The fully-bound form of a possibly hand-written spec.

    Binds ``spec.args`` against the generator's signature and applies
    defaults — without building the graph — so a partially-given or
    reordered spec keys identically to the spec a generator would tag
    its output with.  Raises :class:`ConfigurationError` for unknown
    families, unbindable arguments and argument values the generator's
    signature does not admit.
    """
    if spec.family not in _REGISTRY:
        from . import generators  # noqa: F401  (import populates the registry)
    fn = _REGISTRY.get(spec.family)
    if fn is None:
        raise ConfigurationError(f"unknown graph family {spec.family!r}")
    sig = inspect.signature(fn)
    try:
        bound = sig.bind(**dict(spec.args))
    except TypeError as exc:
        raise ConfigurationError(
            f"cannot build graph family {spec.family!r} "
            f"from args {dict(spec.args)!r}: {exc}"
        )
    bound.apply_defaults()
    _check_args(sig, bound.arguments)
    return GraphSpec(spec.family, tuple(bound.arguments.items()))


def _check_args(sig: inspect.Signature, args: Dict[str, object]) -> None:
    """Reject a generator argument its signature does not admit: a
    ``seed`` must be ``None`` or a non-negative ``int``, an ``int``
    parameter (a size) a non-negative ``int`` and a ``float`` parameter a
    finite number; bools pass as neither (``True`` would build ``1``'s
    graph under another key), and an ``int`` stays below
    :data:`INT_LIMIT`, or no key could spell it.  Without this check the
    generator fails mid-build with an untyped ``TypeError`` or
    ``ValueError``, or the key with a ``ValueError``.

    A ``float`` parameter is stored back in ``args`` as a ``float``, so
    ``avg_degree=3`` binds, builds and keys as ``avg_degree=3.0``: the
    two are ``==`` and build one graph, so they must share one key."""
    for name, value in args.items():
        # The generators' modules postpone annotations: they are strings.
        annotation = sig.parameters[name].annotation
        if name == "seed":
            ok = value is None or _is_count(value)
            admits = "None or a non-negative int"
        elif annotation == "int":
            ok, admits = _is_count(value), "a non-negative int"
        elif annotation == "float":
            number = math.nan
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                try:
                    number = float(value)
                except OverflowError:  # an int past the float range
                    pass
            args[name] = number
            ok, admits = math.isfinite(number), "a finite number"
        else:
            continue
        if not ok:
            raise ConfigurationError(
                f"graph {name} must be {admits}, got {safe_repr(value)}")


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < INT_LIMIT


#: The most digits the interpreter converts an int to text with:
#: ``sys.get_int_max_str_digits()``, 4,300 by default, and 4,300 where
#: the interpreter sets no limit.  A key is JSON text, so every int a
#: scenario or a graph spec admits lies strictly between ``-INT_LIMIT``
#: and ``INT_LIMIT``: one of more digits could be neither keyed nor
#: quoted in an error message.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
INT_LIMIT = 10 ** INT_DIGITS


def safe_repr(value: object) -> str:
    """``repr(value)`` for an error message, or, for an int of more than
    :data:`INT_DIGITS` digits, which has no text form, a description."""
    if isinstance(value, int) and not -INT_LIMIT < value < INT_LIMIT:
        return f"an int of more than {INT_DIGITS} digits"
    return repr(value)


# --------------------------------------------------------------------- #
# Canonical forms (content-addressed cache keys)
# --------------------------------------------------------------------- #

def _canonical_value(value):
    """Canonical form of one spec argument value: nested tuples, which
    hash, and which ``json`` encodes as the arrays of a list form.

    Dict keys keep their type via ``repr`` (``1`` vs ``"1"`` must not
    alias to the same content address).
    """
    if isinstance(value, (tuple, list)):
        return tuple(_canonical_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(
            (repr(k), _canonical_value(v))
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        )
    return value


def canonical_spec(spec: GraphSpec):
    """Canonical form of ``spec`` for content-addressed keys: JSON-safe
    nested tuples.

    Argument order is the generator's signature order (fixed in code),
    and defaults were applied when the spec was bound, so two calls that
    build the same graph canonicalise identically regardless of how the
    arguments were spelled.
    """
    return ("spec", spec.family, tuple((k, _canonical_value(v)) for k, v in spec.args))


def graph_fingerprint(graph: Union[PortLabeledGraph, GraphSpec]):
    """Content fingerprint of a graph or spec for cache keys: nested
    tuples, so it hashes (batch grouping compares it as it is) and
    encodes as JSON arrays (store keys).

    Specs and generator-built graphs fingerprint as the canonical spec —
    stable across processes and machines, and equal for a spec and the
    graph it builds.  Hand-built graphs (no spec) fall back to a SHA-256
    over their CSR arrays, so an identical hand-built graph still hits
    the cache.
    """
    spec = graph if isinstance(graph, GraphSpec) else spec_of(graph)
    if spec is not None:
        return canonical_spec(spec)
    offsets, dest, in_port = graph.csr()
    h = hashlib.sha256()
    for arr in (offsets, dest, in_port):
        h.update(arr.tobytes())
    return ("csr", graph.n, h.hexdigest())
