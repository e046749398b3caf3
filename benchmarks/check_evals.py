#!/usr/bin/env python
"""Behavioural-drift gate: fresh eval-suite runs vs checked-in pins.

Guards ``EVAL_*.json`` *behaviour* — per solver × cell-class success
counts and round totals for every named suite in
:data:`repro.evals.SUITES`.  Unlike timings (measured end to end by
``perfbench/``), behaviour is deterministic, so the comparison is exact:
any drift fails, there is no tolerance knob, and CI can gate on a full
re-run without flakiness.

Discovery is the union of two sources, so nothing drops out silently:

* every ``benchmarks/EVAL_*.json`` file — a pin for a suite that is no
  longer registered fails loudly ("unexpected suite") instead of
  becoming a stale fossil;
* every registered suite — a registered suite whose pin was deleted
  fails loudly ("missing expected file") instead of becoming ungated.

Usage::

    python benchmarks/check_evals.py                       # gate every suite
    python benchmarks/check_evals.py --suite torus_strong,scheduler_stress
    python benchmarks/check_evals.py --update              # refresh the pins
    python benchmarks/check_evals.py --dir /tmp/pins       # gate another dir

Suites re-run fresh (no store, serial, batched) — the executor's
byte-identity guarantees mean any other mode would produce the same
payload anyway; see ``tests/test_evals.py`` for the proof.
"""

import argparse
import glob
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import ReproError  # noqa: E402
from repro.evals import (  # noqa: E402
    SUITES,
    compare_payloads,
    dump_expected,
    expected_path,
    load_expected,
    run_suite,
    write_expected,
)

_HERE = os.path.dirname(__file__)


def discover(directory):
    """Every suite the gate covers: name -> pin path.

    Globs ``EVAL_*.json`` under ``directory`` and unions in every
    registered suite, so deletions and strays both surface.
    """
    suites = {}
    for path in sorted(glob.glob(os.path.join(directory, "EVAL_*.json"))):
        name = os.path.basename(path)[len("EVAL_"):-len(".json")]
        if name:
            suites[name] = path
    for name in SUITES:
        suites.setdefault(name, expected_path(name, directory))
    return suites


def check_suite(name, pin_path):
    """Gate one suite; prints verdicts, returns the number of failures."""
    if name not in SUITES:
        print(f"[{name}] FAIL: {pin_path} pins a suite that is not in "
              f"repro.evals.SUITES (renamed? delete the file or register "
              f"the suite)")
        return 1
    if not os.path.exists(pin_path):
        print(f"[{name}] FAIL: expected file {pin_path} is missing "
              f"(generate it: python benchmarks/check_evals.py --update "
              f"--suite {name})")
        return 1
    try:
        pinned = load_expected(pin_path)
    except ReproError as exc:
        print(f"[{name}] FAIL: {exc}")
        return 1

    canonical = dump_expected(pinned)
    with open(pin_path, encoding="utf-8") as fh:
        if fh.read() != canonical:
            print(f"[{name}] FAIL: {pin_path} is not in canonical form "
                  f"(sorted keys, indent 2, trailing newline); regenerate "
                  f"with --update")
            return 1

    try:
        report = run_suite(name)
        fresh = report.expected_payload()
    except ReproError as exc:
        print(f"[{name}] FAIL: fresh run failed: {exc}")
        return 1

    drift = compare_payloads(pinned, fresh, label=pin_path)
    if drift:
        print(f"[{name}] FAIL: behaviour drifted from the pin:")
        for message in drift:
            print(f"  - {message}")
        print(f"  (intentional change? refresh: python "
              f"benchmarks/check_evals.py --update --suite {name})")
        return len(drift)
    print(f"[{name}] PASS: {pin_path} matches a fresh run "
          f"({fresh['cells']} cells, {len(fresh['solvers'])} solver(s))")
    return 0


def update_suite(name, pin_path):
    """Re-pin one suite from a fresh run; returns failures (0 or 1)."""
    if name not in SUITES:
        print(f"[{name}] FAIL: cannot --update {pin_path}: no such suite "
              f"registered (delete the stray file instead)")
        return 1
    try:
        report = run_suite(name)
        write_expected(report.expected_payload(), pin_path)
    except ReproError as exc:
        print(f"[{name}] FAIL: {exc}")
        return 1
    print(f"[{name}] pin refreshed: {pin_path}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", default="all",
                    help="comma-separated suite names to gate "
                         "(default: all discovered)")
    ap.add_argument("--dir", default=_HERE,
                    help="directory holding the EVAL_*.json pins "
                         "(default: benchmarks/)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the pin(s) from fresh runs instead of "
                         "checking")
    args = ap.parse_args(argv)

    suites = discover(args.dir)
    if args.suite == "all":
        names = list(suites)
    else:
        names = [tok.strip() for tok in args.suite.split(",") if tok.strip()]
        unknown = [n for n in names if n not in suites]
        if unknown:
            ap.error(f"unknown suite(s) {', '.join(unknown)} "
                     f"(discovered: {', '.join(suites)})")

    failures = 0
    for name in names:
        step = update_suite if args.update else check_suite
        failures += step(name, suites[name])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
