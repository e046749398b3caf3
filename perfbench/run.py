"""End-to-end benchmark of the Table 1 reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Workloads: ``table1``, ``seed_sweep``, ``serve`` (see README.md here).
``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload once untraced and once traced and
reports the per-layer metrics.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every correctness check passed, 1 when one failed, and 2
when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table1", "seed_sweep", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long a timed run measures (default: 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import metrics, workloads

    # On SIGTERM, unwind like on Ctrl-C, so that a server this run
    # started is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # Import the library before any timing starts: a timed run charges
    # import to ``setup_s`` (measured in fresh interpreters), not to the
    # first cells; a traced run reports it as the startup layer.
    before = set(sys.modules)
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import_s = time.perf_counter() - t0
    loaded = len(set(sys.modules) - before)

    try:
        if args.trace:
            out = workloads.TRACED[args.workload](args.seed)
            out.values.update({
                "startup.import_s": import_s,
                "startup.modules_loaded": loaded,
                "startup.networkx_loaded": int("networkx" in sys.modules),
            })
        else:
            out = workloads.TIMED[args.workload](args.seed, args.seconds)
    except workloads.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'timed'} run")
    for note in out.notes:
        print("  " + note)
    for name, unit in declared.items():
        print(f"  {name:<28} {out.values[name]:>14.6g} {unit}")
    print(f"  {'error_rate':<28} {out.failed / max(1, out.attempted):>14.6g} "
          f"({out.failed} of {out.attempted})")
    for problem in out.problems:
        print(f"  FAILED: {problem}")
    correct = not out.problems
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    print(metrics.result_line(correct, out.attempted, out.failed, out.values, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
