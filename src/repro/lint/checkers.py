"""The single-file determinism checkers.

Each checker targets one nondeterminism vector this codebase has
actually had to defend against (see EXPERIMENTS.md "Determinism rules"
for the rule-by-rule rationale and the pragma escape hatches):

* :class:`UnseededRngChecker` — all randomness must flow from seed
  streams; module-level ``random.*`` / legacy ``numpy.random.*`` global
  state cannot be replayed across processes or resumes.
* :class:`WallClockChecker` — clock reads in solver/record paths break
  byte-identity between runs; only the executor's timeout machinery and
  latency metrics that never reach a record may read it, under pragmas.
* :class:`UnorderedIterationChecker` — set iteration order is hash-
  dependent (and ``PYTHONHASHSEED``-dependent for strings); anything
  that feeds records, store writes, or sub-round order must iterate
  ``sorted(...)``.
* :class:`CanonicalJsonChecker` — the store and baseline writers must
  serialize with ``sort_keys=True`` or byte-level cache identity is at
  the mercy of dict construction order.
* :class:`ExceptionHygieneChecker` — a broad ``except`` can swallow the
  very nondeterminism the other rules exist to surface; only
  :class:`~repro.errors.ReproError` is a legitimate deterministic
  rejection in solver code.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .base import Checker, Finding, ImportMap, Module

__all__ = [
    "CanonicalJsonChecker",
    "ExceptionHygieneChecker",
    "UnorderedIterationChecker",
    "UnseededRngChecker",
    "WallClockChecker",
]


# --------------------------------------------------------------------- #
# no-unseeded-rng
# --------------------------------------------------------------------- #

#: numpy.random attributes that are *not* legacy global state: explicit
#: generator/seed-material construction is exactly what the rule wants.
_NP_RANDOM_OK = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


class UnseededRngChecker(Checker):
    """Ban module-level ``random.*`` and legacy ``numpy.random.*`` calls.

    Every RNG in this repo is a :class:`numpy.random.Generator` derived
    from an explicit seed (adversary streams, ``scheduler_rng``, per-
    robot substreams).  Global-state RNG calls are invisible to that
    seeding discipline: they differ across processes, across resumes,
    and across library-internal draw order — the exact failure the
    byte-identity tests exist to catch, except unsampled.

    ``random.Random(seed)`` / ``np.random.default_rng(seed)`` with an
    explicit seed are fine; the same constructors with *no* arguments
    seed from OS entropy and are flagged.
    """

    name = "no-unseeded-rng"
    pragma = "allow-rng"
    description = ("module-level random.* / legacy numpy.random.* global "
                   "state (all RNG must flow from explicit seed streams)")
    hint = ("derive randomness from a seeded stream: "
            "np.random.default_rng((seed, substream)) threaded from the "
            "adversary/scheduler seed, or random.Random(seed)")

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap.of(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.resolve(node.func)
            if origin is None:
                continue
            finding = self._classify(module, node, origin)
            if finding is not None:
                yield finding

    def _classify(self, module: Module, node: ast.Call, origin: str) -> Optional[Finding]:
        if origin.startswith("random."):
            attr = origin[len("random."):]
            if attr == "Random":
                if not node.args and not node.keywords:
                    return self.emit(module, node,
                                     "random.Random() with no seed draws from OS entropy")
                return None
            if attr == "SystemRandom":
                return self.emit(module, node,
                                 "random.SystemRandom is OS entropy — unreproducible by design")
            return self.emit(module, node,
                             f"call into the random module's global state (random.{attr})")
        if origin.startswith("numpy.random."):
            attr = origin[len("numpy.random."):]
            if attr in _NP_RANDOM_OK:
                if attr == "default_rng" and not node.args and not node.keywords:
                    return self.emit(module, node,
                                     "np.random.default_rng() with no seed draws from OS entropy")
                return None
            if attr == "RandomState":
                if not node.args and not node.keywords:
                    return self.emit(module, node,
                                     "np.random.RandomState() with no seed draws from OS entropy")
                return self.emit(module, node,
                                 "np.random.RandomState is the legacy bit stream; use default_rng")
            return self.emit(module, node,
                             f"call into numpy's legacy global RNG state (numpy.random.{attr})")
        return None


# --------------------------------------------------------------------- #
# no-wallclock-in-records
# --------------------------------------------------------------------- #

#: Clock-reading callables (``time.sleep`` is deliberately absent: it
#: consumes time but feeds no value into records).
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockChecker(Checker):
    """Ban clock reads in record-producing code.

    A wall-clock value that reaches a record, a store shard, or a
    control-flow decision makes two otherwise-identical runs diverge.
    The plan executor's timeout machinery and the serve and eval latency
    metrics carry line pragmas with justifications; benchmarking lives
    outside the package, in ``perfbench/``.
    """

    name = "no-wallclock-in-records"
    pragma = "allow-wallclock"
    description = ("time.time/perf_counter/datetime.now outside "
                   "pragma'd timeout and latency code")
    hint = ("record-producing code must be a pure function of its seeds; "
            "move timing into perfbench/, or pragma the line with a "
            "justification if it is timeout machinery")

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap.of(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.resolve(node.func)
            if origin in _CLOCK_CALLS:
                finding = self.emit(module, node, f"wall-clock read ({origin})")
                if finding is not None:
                    yield finding


# --------------------------------------------------------------------- #
# no-unordered-iteration
# --------------------------------------------------------------------- #

#: Consumers whose result cannot depend on iteration order.
_ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset",
})

#: Set-returning method names (when called on a known set expression).
_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy",
})

#: Calls that materialise their argument's iteration order.
_ORDER_SENSITIVE_WRAPPERS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})


class _SetTracker(ast.NodeVisitor):
    """Scope-aware detection of iteration over set-typed expressions.

    Performs a light, purely syntactic inference: set literals, set
    comprehensions, ``set(...)``/``frozenset(...)`` calls, set-operator
    expressions over those, set-returning methods on those, and local
    names assigned such expressions within the current function scope.
    No cross-function or cross-module dataflow — the point is catching
    the obvious hazard at review time, with a pragma for the rest.
    """

    def __init__(self, checker: "UnorderedIterationChecker", module: Module) -> None:
        self.checker = checker
        self.module = module
        self.findings: List[Finding] = []
        self._scopes: List[Set[str]] = [set()]
        #: GeneratorExp/SetComp nodes passed to order-insensitive calls.
        self._safe_nodes: Set[int] = set()

    # -- set-expression classification --------------------------------- #

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope for scope in reversed(self._scopes))

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return self._is_set_name(node.id)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
                return True
            if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
                return self.is_set_expr(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_set_expr(node.left) or (
                not isinstance(node.op, ast.Sub) and self.is_set_expr(node.right)
            )
        return False

    # -- scope handling ------------------------------------------------ #

    @staticmethod
    def _scope_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
        """Every statement in this scope, nested blocks included,
        nested function/class scopes excluded."""
        stack = list(body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            yield stmt
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, ast.ExceptHandler):
                    stack.extend(child.body)

    def _collect_set_names(self, body: List[ast.stmt]) -> Set[str]:
        names: Set[str] = set()
        for stmt in self._scope_statements(body):
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is not None and self.is_set_expr(value):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    def _visit_scope(self, node, body: List[ast.stmt]) -> None:
        self._scopes.append(self._collect_set_names(body))
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, node.body)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, node.body)

    def visit_Module(self, node: ast.Module) -> None:
        self._scopes[0] = self._collect_set_names(node.body)
        self.generic_visit(node)

    # -- flagged sites ------------------------------------------------- #

    def _flag(self, site: ast.AST, what: str) -> None:
        finding = self.checker.emit(
            self.module, site,
            f"{what} iterates a set — order is hash-dependent",
        )
        if finding is not None:
            self.findings.append(finding)

    def visit_For(self, node: ast.For) -> None:
        if self.is_set_expr(node.iter):
            self._flag(node, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node, what: str) -> None:
        if id(node) not in self._safe_nodes:
            for gen in node.generators:
                if self.is_set_expr(gen.iter):
                    self._flag(node, what)
                    break
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._check_comprehension(node, "generator expression")

    def visit_SetComp(self, node: ast.SetComp) -> None:
        # A set built from a set stays order-free; just recurse.
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in _ORDER_INSENSITIVE_CALLS:
                # sorted(x for x in S) etc.: the consumer erases order.
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.SetComp)):
                        self._safe_nodes.add(id(arg))
            elif func.id in _ORDER_SENSITIVE_WRAPPERS:
                for arg in node.args[:1]:
                    if self.is_set_expr(arg):
                        self._flag(node, f"{func.id}(...)")
        elif isinstance(func, ast.Attribute) and func.attr in {"join", "extend"}:
            for arg in node.args[:1]:
                if self.is_set_expr(arg):
                    self._flag(node, f".{func.attr}(...)")
        self.generic_visit(node)


class UnorderedIterationChecker(Checker):
    """Flag iteration over sets that is not wrapped in ``sorted(...)``.

    Set iteration order depends on element hashes — and, for strings,
    on ``PYTHONHASHSEED`` — so a set that leaks into record order,
    store writes, or sub-round order silently breaks byte-identity
    between interpreter invocations.  Order-insensitive consumers
    (``sorted``, ``len``, ``min``/``max``, ``sum``, ``any``/``all``,
    membership tests, building another set) are not flagged.
    """

    name = "no-unordered-iteration"
    pragma = "allow-unordered"
    description = ("iterating a set (or set-valued expression) without "
                   "sorted() — order is hash-dependent")
    hint = ("wrap the iterable in sorted(...); if the loop is provably "
            "order-commutative, pragma it with the justification")

    def check(self, module: Module) -> Iterator[Finding]:
        tracker = _SetTracker(self, module)
        tracker.visit(module.tree)
        return iter(tracker.findings)


# --------------------------------------------------------------------- #
# canonical-json-only
# --------------------------------------------------------------------- #

class CanonicalJsonChecker(Checker):
    """Require ``sort_keys=True`` in the store serializers.

    Scoped to the modules that write store shards: there, JSON bytes
    *are* identity (content hashes, cache keys), so key order must be
    canonical, not whatever dict construction order happens to be.
    """

    name = "canonical-json-only"
    pragma = "allow-unsorted-json"
    description = ("json.dumps/json.dump without sort_keys=True in "
                   "store-shard writer modules")
    hint = ("pass sort_keys=True (canonical bytes), or pragma with a "
            "justification when insertion order is itself the pinned "
            "contract")
    only_suffixes = (
        "repro/analysis/store.py",
        "repro/analysis/batching.py",
    )

    def check(self, module: Module) -> Iterator[Finding]:
        imports = ImportMap.of(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = imports.resolve(node.func)
            if origin not in ("json.dumps", "json.dump"):
                continue
            sort_keys = None
            for kw in node.keywords:
                if kw.arg == "sort_keys":
                    sort_keys = kw.value
            ok = (
                sort_keys is not None
                and isinstance(sort_keys, ast.Constant)
                and sort_keys.value is True
            )
            if not ok:
                finding = self.emit(
                    module, node,
                    f"{origin}(...) without sort_keys=True in a "
                    f"canonical-bytes module",
                )
                if finding is not None:
                    yield finding


# --------------------------------------------------------------------- #
# exception-hygiene
# --------------------------------------------------------------------- #

class ExceptionHygieneChecker(Checker):
    """Flag bare ``except:`` and ``except (Base)Exception``.

    In solver code (``core/``, ``baselines/``, ``sim/``) the only
    legitimate *deterministic* rejection is a
    :class:`~repro.errors.ReproError`; a broad handler can silently
    normalise a nondeterministic crash into a deterministic-looking
    result.  The executor's genuine fault boundaries (worker crash
    conversion, pool teardown) carry justified pragmas.
    """

    name = "exception-hygiene"
    pragma = "allow-broad-except"
    description = ("bare except / except Exception (only ReproError is a "
                   "legitimate deterministic rejection in solver code)")
    hint = ("catch the narrowest type that can actually occur (ReproError "
            "for deterministic rejections); pragma genuine fault "
            "boundaries with a justification")

    _BROAD = ("Exception", "BaseException")

    def _broad_name(self, node: Optional[ast.expr]) -> Optional[str]:
        if node is None:
            return "bare except:"
        if isinstance(node, ast.Name) and node.id in self._BROAD:
            return f"except {node.id}"
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                if isinstance(elt, ast.Name) and elt.id in self._BROAD:
                    return f"except (... {elt.id} ...)"
        return None

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            finding = self.emit(
                module, node,
                f"{broad} can swallow nondeterministic failures",
            )
            if finding is not None:
                yield finding
