"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``       the paper's Table 1 on a random graph: every applicable
                 row × strategy × scheduler at the row's bound, resumable
                 from an on-disk run store (``sweep`` is an alias)
``run``          run one Table 1 row with explicit parameters
``tolerance``    sweep f for one row
``scenario``     run scenario(s) from a JSON file (the declarative API)
``store``        inspect or maintain an on-disk run store
                 (``store stats|verify|compact DIR``)
``impossible``   run the Theorem 8 construction
``strategies``   list the adversary zoo and the activation schedulers
``lint``         determinism linter: static AST checks proving the
                 byte-identity rules (seeded RNG only, no wall clocks,
                 sorted iteration, canonical JSON, exception hygiene);
                 nonzero exit on findings, ``--format json`` for tooling
``serve``        dispersion-as-a-service: asyncio HTTP server over a
                 run store (warm cells answered with zero solver calls,
                 single-flight dedup, bounded-queue backpressure, live
                 SSE run streaming — see ``repro.serve``)
``eval``         run a named solver eval suite: a leaderboard, or with
                 ``--json`` the payload ``benchmarks/check_evals.py``
                 pins in ``benchmarks/EVAL_<suite>.json``

Every plan command (``table1``, ``run``, ``tolerance``, ``scenario``)
builds a scenario grid, runs it with the same plan flags and prints its
records through one renderer: one table (``scenario --json`` prints the
records instead), a per-scheduler summary when they span several
schedulers, the quarantined cells and the store traffic.  ``--workers
N`` fans independent cells out over ``N`` processes, one task per cell
(records identical to, and ordered like, a serial run); ``--store DIR``
caches completed cells in a content-addressed run store;
``--resume/--no-resume`` controls replay; ``--timeout``/``--retries``/
``--strict`` set the fault policy.  Compatible cells always go through
the batched engine (records are byte-identical to per-cell runs).  A
re-run against a warm store answers entirely from disk with zero solver
calls.  Input the library rejects (``f`` beyond a row's bound, an
unknown ``table1`` strategy, a non-positive ``--timeout``) exits with
one ``<command> rejected: ...`` line, never a traceback.

``table1`` takes comma-separated ``--strategies`` (also spelled
``--strategy``), ``--serials`` and ``--scheduler`` activation-model
specs (:mod:`repro.sim.schedulers`) and crosses them into one grid; at
the ``synchronous`` default its cells and store keys are exactly
``table1_grid``'s.  ``run`` takes one ``--scheduler`` spec, and ``run
--detail`` calls the solver directly for its per-phase rounds and
violation messages.  ``scenario`` takes a JSON file holding one scenario
object or a list — the serialized form of
:class:`repro.scenarios.Scenario` — and hits exactly the same store
cells as the equivalent ``table1`` run.

Examples::

    python -m repro table1 --n 10 --strategy ghost_squatter --workers 4
    python -m repro table1 --n 9 --strategies squatter,idle --store runs/ --workers 4
    python -m repro sweep --n 9 --scheduler 'synchronous,adversarial(window=4)'
    python -m repro run --row 4 --n 9 --f 3 --strategy squatter --store runs/
    python -m repro run --row 4 --n 9 --scheduler 'semi_synchronous(p=0.5)' --detail
    python -m repro tolerance --row 5 --n 9 --store runs/ --workers 2
    python -m repro scenario experiment.json --store runs/
    python -m repro scenario experiment.json --key   # print cell keys only
    python -m repro store stats runs/
    python -m repro store verify runs/ --repair
    python -m repro store compact runs/
    python -m repro impossible --n 6 --k 12 --f 6
    python -m repro serve --store runs/ --workers 4 --port 8008
    python -m repro lint
    python -m repro lint src/repro --format json --select exception-hygiene
    python -m repro eval ring_weak_byz --store runs/

Wall-clock benchmarking lives outside the package, in ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Callable, List, Optional

from .analysis import ExecutionPolicy, render_table
from .analysis.store import RunStore
from .byzantine import STRATEGIES, STRONG_STRATEGIES, WEAK_STRATEGIES, Adversary
from .core import TABLE1, demonstrate_impossibility, get_row
from .errors import ReproError, SweepFaultError
from .graphs import is_quotient_isomorphic, random_connected
from .scenarios import Scenario, ScenarioGrid, grid, tolerance_grid
from .sim.schedulers import SCHEDULERS, canonical_scheduler

__all__ = ["main"]

#: The columns of ``table1`` and ``run``; ``_show`` adds ``scheduler``
#: and ``activations`` when a record carries them.
_TABLE1_COLUMNS = [
    "serial", "theorem", "running_time", "start", "strong", "strategy", "f",
    "success", "rounds_simulated", "rounds_charged", "paper_bound",
]


def _sample_graph(n: int, require_view_distinct: bool, seed: int):
    for s in range(seed, seed + 100):
        g = random_connected(n, seed=s)
        if not require_view_distinct or is_quotient_isomorphic(g):
            return g
    raise SystemExit(f"could not sample a suitable graph with n={n}")


def _split(text: str, flag: str, parse: Callable = str) -> List:
    """A comma-separated flag value, each item through ``parse``.  A
    comma inside parentheses does not split
    (``crash_recovery(down=2,up=6),synchronous`` is two items); an item
    ``parse`` rejects exits with one line."""
    try:
        return [parse(s.strip()) for s in re.split(r",(?![^(]*\))", text) if s.strip()]
    except (ValueError, ReproError) as exc:
        raise SystemExit(f"bad {flag} value {text!r}: {exc}")


def _store_of(args) -> Optional[RunStore]:
    """The run store a plan-flagged command should use (or ``None``)."""
    return RunStore(args.store) if getattr(args, "store", None) else None


def _policy_of(args) -> ExecutionPolicy:
    """The :class:`ExecutionPolicy` a plan-flagged command requested."""
    return ExecutionPolicy(
        timeout=getattr(args, "timeout", None),
        max_retries=getattr(args, "retries", 2),
        strict=getattr(args, "strict", False),
    )


def _print_failures(records) -> None:
    """Print the quarantine summary table for a record list (nothing on
    a healthy sweep)."""
    failed = [r for r in records if r.get("failed")]
    if failed:
        print()
        print(
            render_table(
                failed,
                columns=["serial", "strategy", "seed", "reason",
                         "error", "attempts", "key"],
                title=f"Quarantined cells ({len(failed)}) — "
                      f"retry budget exhausted; re-run to retry, "
                      f"--strict to fail hard",
            )
        )


def _print_store_traffic(store: Optional[RunStore]) -> None:
    if store is not None:
        print(
            f"store {store.path}: {store.hits} cell(s) answered from cache, "
            f"{store.puts} computed, {len(store)} total entries"
        )


def _show(args, plan: ScenarioGrid, title: str,
          columns: Optional[List[str]] = None) -> int:
    """Run ``plan`` with the command's plan flags and print its records:
    the ``--json`` records or one table (``columns``, plus ``scheduler``
    and ``activations`` when a record carries them), a per-scheduler
    summary when the records span several schedulers, the quarantined
    cells, and the store traffic.

    Returns the exit code: 1 when nothing ran or when a record neither
    succeeded nor was rejected (a run that did not disperse, or a cell
    quarantined after its retries), 0 otherwise.
    """
    policy = _policy_of(args)
    if not len(plan):
        print(f"{title}: no applicable cells — nothing ran")
        return 1
    store = _store_of(args)
    records = plan.run(workers=args.workers, store=store, resume=args.resume,
                       policy=policy)
    if getattr(args, "json", False):
        print(records.to_json(indent=2))
    else:
        if columns and any("scheduler" in r for r in records):
            at = columns.index("f")
            columns = [*columns[:at], "scheduler", "activations", *columns[at:]]
        print(render_table(records, columns=columns, title=title))
        if len({r.get("scheduler", "synchronous") for r in records}) > 1:
            # Synchronous records omit the key (cache compatibility) and
            # group under the default label.
            print()
            print(render_table(records.summarize("scheduler", missing="synchronous"),
                               title="By scheduler"))
        _print_failures(records)
    _print_store_traffic(store)
    return 0 if all(r.get("success") or r.get("rejected") for r in records) else 1


def _cmd_table1(args) -> int:
    strategies = _split(args.strategies, "--strategies")
    serials = _split(args.serials, "--serials", int) if args.serials else None
    schedulers = _split(args.scheduler, "--scheduler", canonical_scheduler)
    graph = _sample_graph(args.n, require_view_distinct=True, seed=args.seed)
    # Rows keep TABLE1 order; at the default scheduler axis this is
    # exactly table1_grid's plan (same cells, same store keys).
    rows = [row.serial for row in TABLE1 if serials is None or row.serial in serials]
    plan = (
        grid(rows=rows, graphs=graph, strategies=strategies, f="max",
             schedulers=schedulers, seeds=args.seed)
        if rows else ScenarioGrid([])
    )
    title = (f"Table 1 reproduction (n={graph.n}, m={graph.m}, "
             f"strategies={','.join(strategies)})")
    return _show(args, plan, title, _TABLE1_COLUMNS)


def _cmd_run(args) -> int:
    row = get_row(args.row)
    try:
        scheduler = canonical_scheduler(args.scheduler)
    except ReproError as exc:
        raise SystemExit(f"bad --scheduler value: {exc}")
    graph = _sample_graph(args.n, require_view_distinct=(args.row == 1), seed=args.seed)
    if args.detail:
        # Direct solver call: full RunReport diagnostics (per-phase round
        # breakdown, violation messages) that the flat record pipeline
        # cannot carry.  Uncached and serial by design.
        f = row.f_max(graph) if args.f is None else args.f
        report = row.solver(
            graph, f=f, adversary=Adversary(args.strategy, seed=args.seed),
            seed=args.seed, scheduler=scheduler,
        )
        print(f"row {row.serial} (Theorem {row.theorem}), n={graph.n}, f={f}, "
              f"strategy={args.strategy}")
        print(f"  success          : {report.success}")
        print(f"  simulated rounds : {report.rounds_simulated:,}")
        print(f"  charged rounds   : {report.rounds_charged:,}")
        for label, rounds in report.phases:
            print(f"    - {label}: {rounds:,}")
        for v in report.violations:
            print(f"  violation        : {v}")
        return 0 if report.success else 1
    scenario = Scenario(
        algorithm=args.row, graph=graph, strategy=args.strategy,
        f="max" if args.f is None else args.f, seed=args.seed,
        scheduler=scheduler,
    )
    code = _show(args, ScenarioGrid([scenario]),
                 f"Table 1 row {row.serial} (n={graph.n}, m={graph.m})", _TABLE1_COLUMNS)
    if code:
        print("(re-run with --detail for the per-phase breakdown and "
              "violation messages)")
    return code


def _cmd_tolerance(args) -> int:
    row = get_row(args.row)
    graph = _sample_graph(args.n, require_view_distinct=(args.row == 1), seed=args.seed)
    f_max = row.f_max(graph)
    fs = range(0, min(f_max + 3, graph.n))
    return _show(
        args, tolerance_grid(row.serial, graph, fs, args.strategy, seed=args.seed),
        f"Tolerance sweep, row {row.serial} (bound f<={f_max}), n={graph.n}",
        ["f", "rejected", "success", "rounds_simulated", "rounds_total"],
    )


def _cmd_scenario(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read scenario file {args.file!r}: {exc}")
    try:
        if isinstance(payload, list):
            scenario_grid = ScenarioGrid.from_dicts(payload)
        else:
            scenario_grid = ScenarioGrid([Scenario.from_dict(payload)])
    except ReproError as exc:
        raise SystemExit(f"invalid scenario file {args.file!r}: {exc}")
    if not len(scenario_grid):
        raise SystemExit(f"scenario file {args.file!r} holds no scenarios")
    for scenario in scenario_grid:
        print(f"scenario: {scenario.describe()}")
        print(f"  key: {scenario.key()}")
    if args.key:
        return 0
    return _show(args, scenario_grid, f"Scenario records ({len(scenario_grid)})")


def _existing_store(path: str) -> RunStore:
    """Open ``path`` as a store that must already exist.

    Inspection and maintenance must not mutate absent paths: opening a
    RunStore on a missing or empty directory would *create* a store
    (makedirs + meta.json) at a typo.
    """
    if not Path(path).is_dir() or not (Path(path) / "meta.json").is_file():
        raise SystemExit(f"{path!r} is not a run store (no meta.json)")
    return RunStore(path)


def _cmd_store(args) -> int:
    stats = _existing_store(args.path).stats()
    if args.json:
        print(json.dumps(stats, indent=2))
        return 0
    print(f"run store {stats['path']}")
    print(f"  schema version   : {stats['schema_version']} "
          f"(created under {stats['created_schema_version']})")
    print(f"  shards           : {stats['shards']}")
    print(f"  cells            : {stats['cells']}")
    print(f"  bytes on disk    : {stats['bytes']:,} "
          f"({stats['indexed_bytes']:,} indexed)")
    if stats["torn_shards"]:
        print(f"  torn shards      : {stats['torn_shards']} "
              f"(trailing crash debris; repaired on next append)")
    return 0


def _cmd_store_verify(args) -> int:
    """Digest-check every entry; optionally repair in place.

    Exits 0 when every live entry verifies, 1 otherwise — after
    ``--repair``, that means 1 only if the rewrite itself failed to
    produce a clean store.
    """
    store = _existing_store(args.path)
    report = store.verify()
    if args.repair and (not report["ok"] or report["torn_lines"]):
        repair = store.repair()
        report = store.verify()
        report["repaired_shards"] = repair["repaired_shards"]
        report["dropped_lines"] = repair["dropped_lines"]
    if args.json:
        print(json.dumps(report, indent=2))
        return 0 if report["ok"] else 1
    print(f"run store {args.path}")
    print(f"  cells verified   : {report['verified']}/{report['cells']}")
    if report["corrupt"]:
        print(f"  corrupt entries  : {report['corrupt']}")
        for key in report["corrupt_keys"]:
            print(f"    - {key}")
    if report["torn_lines"]:
        print(f"  torn lines       : {report['torn_lines']} (crash debris)")
    if report["stale_lines"]:
        print(f"  stale lines      : {report['stale_lines']} "
              f"(superseded; 'store compact' reclaims them)")
    if "repaired_shards" in report:
        print(f"  repaired         : {report['repaired_shards']} shard(s) "
              f"rewritten, {report['dropped_lines']} bad line(s) dropped")
    elif not report["ok"]:
        print("  (re-run with --repair to drop the corrupt entries; the "
              "executor recomputes them on the next resumed sweep)")
    print(f"  status           : {'ok' if report['ok'] else 'CORRUPT'}")
    return 0 if report["ok"] else 1


def _cmd_store_compact(args) -> int:
    """Rewrite shards keeping only the winning line per cell key."""
    store = _existing_store(args.path)
    report = store.compact()
    if args.json:
        print(json.dumps(report, indent=2))
        return 0
    print(f"run store {args.path}")
    print(f"  cells            : {report['cells']}")
    print(f"  lines dropped    : {report['dropped_lines']}")
    print(f"  bytes reclaimed  : {report['reclaimed_bytes']:,}")
    return 0


def _cmd_impossible(args) -> int:
    graph = _sample_graph(args.n, require_view_distinct=False, seed=args.seed)
    rep = demonstrate_impossibility(graph, k=args.k, f=args.f, seed=args.seed)
    print(f"n={rep.n} k={rep.k} f={rep.f}")
    print(f"  ceil(k/n)={rep.cap_all}  ceil((k-f)/n)={rep.cap_required}")
    print(f"  Theorem 8 applies : {rep.applies}")
    print(f"  violation shown   : {rep.violated}"
          f"  ({rep.honest_at_crowded} honest robots on node {rep.crowded_node})")
    return 0


def _cmd_lint(args) -> int:
    from .lint import CHECKERS, lint_paths

    select = _split(args.select, "--select") if args.select else None
    try:
        findings = lint_paths(args.paths or None, select=select)
    except ValueError as exc:  # unknown checker name(s)
        known = ", ".join(c.name for c in CHECKERS)
        print(f"error: {exc} (known: {known})", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        if findings:
            print(f"\n{len(findings)} finding(s)")
        else:
            print("determinism lint ok: no findings")
    return 1 if findings else 0


def _lint_epilog() -> str:
    from .lint import CHECKERS

    lines = ["checkers (pragma escape in parentheses):"]
    for checker in CHECKERS:
        lines.append(f"  {checker.name} (# repro: {checker.pragma})")
        lines.append(f"      {checker.description}")
    lines.append("example: python -m repro lint --format json")
    return "\n".join(lines)


def _cmd_strategies(args) -> int:
    print("weak-model strategies  :", ", ".join(WEAK_STRATEGIES))
    print("strong-model additions :",
          ", ".join(s for s in STRONG_STRATEGIES if s not in WEAK_STRATEGIES))
    specs = [
        name if not sig else f"{name}({', '.join(param for param, _ in sig)})"
        for name, (sig, _) in sorted(SCHEDULERS.items())
    ]
    print("activation schedulers  :", ", ".join(specs))
    return 0


def _cmd_serve(args) -> int:
    from .serve import run_server  # deferred: pulls in the asyncio stack

    return run_server(
        host=args.host,
        port=args.port,
        store=_store_of(args),
        workers=args.workers,
        queue_size=args.queue_size,
        policy=_policy_of(args),
        round_every=args.round_every,
    )


def _eval_epilog() -> str:
    from .evals import SUITES

    lines = ["suites:"]
    for suite in SUITES.values():
        lines.append(f"  {suite.name} — {suite.title}")
        lines.append(f"      {suite.regime}")
    lines.append("example: python -m repro eval ring_weak_byz --store runs/ --json")
    return "\n".join(lines)


def _cmd_eval(args) -> int:
    from .evals import run_suite

    solvers = _split(args.solvers, "--solvers") if args.solvers else None
    store = _store_of(args)
    try:
        report = run_suite(
            args.suite, store=store, workers=args.workers, solvers=solvers,
            resume=args.resume, policy=_policy_of(args),
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_failed = len(report.quarantined())
    if args.json:
        # Canonical bytes: the golden-fixture and determinism tests pin
        # this output, so it must be identical across execution modes.
        print(json.dumps(report.json_payload(), indent=2, sort_keys=True))
    else:
        print(report.table())
        _print_failures(report.results)
        _print_store_traffic(store)
    return 1 if n_failed else 0


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    """The plan-executor flags every solver-running subcommand shares."""
    parser.add_argument("--workers", type=int, default=None,
                        help="processes for the plan (default: serial)")
    parser.add_argument("--store", default=None,
                        help="run-store directory (created if missing; "
                             "omit to disable caching)")
    parser.add_argument("--resume", action="store_true", default=True,
                        help="answer cells already in the store from disk (default)")
    parser.add_argument("--no-resume", dest="resume", action="store_false",
                        help="recompute every cell (results still appended to the store)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-cell wall-clock budget in seconds "
                             "(parallel runs only; default: none)")
    parser.add_argument("--retries", type=int, default=2,
                        help="retries before a failing cell is quarantined "
                             "(default: 2)")
    parser.add_argument("--strict", action="store_true",
                        help="raise on a quarantined cell instead of "
                             "recording a structured failure")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Byzantine Dispersion on Graphs (IPDPS 2021) — reproduction CLI",
    )
    sub = p.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser(
        "table1", aliases=["sweep"],
        help="the paper's Table 1: rows x strategies x schedulers on a random graph",
        epilog="example: python -m repro table1 --n 9 --strategies squatter,idle "
               "--scheduler 'synchronous,semi_synchronous(p=0.5)' --store runs/",
    )
    t1.add_argument("--n", type=int, default=9)
    t1.add_argument("--strategies", "--strategy", default="ghost_squatter",
                    help="comma-separated adversary strategies (default: ghost_squatter)")
    t1.add_argument("--serials", default=None,
                    help="comma-separated Table 1 serials (default: all applicable)")
    t1.add_argument("--scheduler", default="synchronous",
                    help="comma-separated activation-scheduler specs, e.g. "
                         "'synchronous,adversarial(window=4)' (default: "
                         "synchronous)")
    t1.add_argument("--seed", type=int, default=0)
    _add_plan_args(t1)
    t1.set_defaults(func=_cmd_table1)

    run = sub.add_parser(
        "run", help="run one Table 1 row",
        epilog="example: python -m repro run --row 4 --n 9 --f 2 "
               "--scheduler 'semi_synchronous(p=0.5)' --detail",
    )
    run.add_argument("--row", type=int, required=True, choices=range(1, 8))
    run.add_argument("--n", type=int, default=9)
    run.add_argument("--f", type=int, default=None, help="defaults to the row's bound")
    run.add_argument("--strategy", default="squatter", choices=sorted(STRATEGIES))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--scheduler", default="synchronous",
                     help="activation-scheduler spec (default: synchronous; "
                          "see 'repro strategies' for the zoo)")
    run.add_argument("--detail", action="store_true",
                     help="call the solver directly for full diagnostics "
                          "(per-phase rounds, violation messages); "
                          "bypasses the store/executor")
    _add_plan_args(run)
    run.set_defaults(func=_cmd_run)

    tol = sub.add_parser(
        "tolerance", help="sweep f for one row",
        epilog="example: python -m repro tolerance --row 5 --n 9 --store runs/ --workers 2",
    )
    tol.add_argument("--row", type=int, required=True, choices=range(1, 8))
    tol.add_argument("--n", type=int, default=9)
    tol.add_argument("--strategy", default="ghost_squatter", choices=sorted(STRATEGIES))
    tol.add_argument("--seed", type=int, default=0)
    _add_plan_args(tol)
    tol.set_defaults(func=_cmd_tolerance)

    sc = sub.add_parser(
        "scenario",
        help="run scenario(s) from a JSON file (see repro.scenarios)",
        epilog="example: python -m repro scenario experiment.json --store runs/ --json",
    )
    sc.add_argument("file", help="JSON file: one scenario object or a list")
    sc.add_argument("--key", action="store_true",
                    help="print the store cell key(s) and exit without running")
    sc.add_argument("--json", action="store_true",
                    help="print records as JSON instead of a table")
    _add_plan_args(sc)
    sc.set_defaults(func=_cmd_scenario)

    st = sub.add_parser(
        "store", help="inspect or maintain an on-disk run store",
        epilog="example: python -m repro store stats runs/",
    )
    st_sub = st.add_subparsers(dest="store_command", required=True)
    st_stats = st_sub.add_parser(
        "stats", help="shard count, cells, bytes, schema version",
        epilog="example: python -m repro store stats runs/ --json",
    )
    st_stats.add_argument("path", help="run-store directory")
    st_stats.add_argument("--json", action="store_true",
                          help="print the stats as JSON")
    st_stats.set_defaults(func=_cmd_store)
    st_verify = st_sub.add_parser(
        "verify", help="digest-check every cached cell; exit 1 on corruption",
        epilog="example: python -m repro store verify runs/ --repair",
    )
    st_verify.add_argument("path", help="run-store directory")
    st_verify.add_argument("--repair", action="store_true",
                           help="rewrite damaged shards, dropping corrupt "
                                "lines (atomic per shard)")
    st_verify.add_argument("--json", action="store_true",
                           help="print the report as JSON")
    st_verify.set_defaults(func=_cmd_store_verify)
    st_compact = st_sub.add_parser(
        "compact", help="reclaim superseded/corrupt lines from the shards",
        epilog="example: python -m repro store compact runs/",
    )
    st_compact.add_argument("path", help="run-store directory")
    st_compact.add_argument("--json", action="store_true",
                            help="print the report as JSON")
    st_compact.set_defaults(func=_cmd_store_compact)

    imp = sub.add_parser(
        "impossible", help="run the Theorem 8 construction",
        epilog="example: python -m repro impossible --n 6 --k 12 --f 6",
    )
    imp.add_argument("--n", type=int, default=6)
    imp.add_argument("--k", type=int, default=12)
    imp.add_argument("--f", type=int, default=6)
    imp.add_argument("--seed", type=int, default=0)
    imp.set_defaults(func=_cmd_impossible)

    ls = sub.add_parser(
        "strategies", help="list the adversary zoo and activation schedulers",
        epilog="example: python -m repro strategies",
    )
    ls.set_defaults(func=_cmd_strategies)

    sv = sub.add_parser(
        "serve",
        help="HTTP scenario server over a run store "
             "(dispersion-as-a-service; see repro.serve)",
        epilog="example: python -m repro serve --store runs/ --workers 4 --port 8008",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8008,
                    help="bind port, 0 for ephemeral (default: 8008)")
    sv.add_argument("--store", default=None,
                    help="run-store directory shared with the CLI (created "
                         "if missing; omit to recompute every request)")
    sv.add_argument("--workers", type=int, default=2,
                    help="compute threads for cold cells (default: 2)")
    sv.add_argument("--queue-size", dest="queue_size", type=int, default=64,
                    help="cells that may wait for a compute thread; one "
                         "more answers 429 + Retry-After (default: 64)")
    sv.add_argument("--round-every", dest="round_every", type=int, default=100,
                    help="SSE round-progress sampling stride (default: "
                         "every 100 rounds)")
    sv.add_argument("--retries", type=int, default=2,
                    help="retries before a failing cell is quarantined "
                         "(default: 2)")
    sv.set_defaults(func=_cmd_serve)

    li = sub.add_parser(
        "lint",
        help="determinism linter: static proofs of the byte-identity rules",
        epilog=_lint_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    li.add_argument("paths", nargs="*",
                    help="files/directories to lint (default: the installed "
                         "repro package)")
    li.add_argument("--format", choices=("human", "json"), default="human",
                    help="output format (default: human)")
    li.add_argument("--select",
                    help="comma-separated checker names to run (default: all)")
    li.set_defaults(func=_cmd_lint)

    from .evals import suite_names as _eval_suite_names

    ev = sub.add_parser(
        "eval",
        help="run a named solver eval suite: leaderboard + pinned expected results",
        epilog=_eval_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ev.add_argument("suite", choices=_eval_suite_names(), metavar="SUITE",
                    help=f"which suite to run — one of "
                         f"{', '.join(_eval_suite_names())}")
    ev.add_argument("--solvers",
                    help="comma-separated solver subset (serials, names, or "
                         "theoremN; default: every solver the suite exercises)")
    ev.add_argument("--json", action="store_true",
                    help="print the leaderboard + expected payload as "
                         "canonical JSON (wall-time-free, byte-stable) "
                         "instead of the table")
    _add_plan_args(ev)
    ev.set_defaults(func=_cmd_eval)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A :class:`~repro.errors.ReproError` — input the library rejects, such
    as ``f`` beyond a row's bound or a non-positive ``--timeout`` — exits
    with a one-line ``<command> rejected: <Type>: <message>``, never a
    traceback.  The exception is :class:`~repro.errors.SweepFaultError`,
    a cell that kept failing under ``--strict``: that flag asks for a
    hard failure, so it propagates.  (``eval`` reports its own errors
    with exit code 2.)
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SweepFaultError:
        raise
    except ReproError as exc:
        raise SystemExit(f"{args.command} rejected: {type(exc).__name__}: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
