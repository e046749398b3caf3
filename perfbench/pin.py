"""Regenerate ``pins.json``: each workload's record digest per seed.

Usage (from the root of a checkout)::

    python3 perfbench/pin.py --seeds 0-63,7919

Computes, untimed, the records a run checks against its pin — the
first ``table1`` passes, the first cold ``seed_sweep`` phase, and direct
``run_scenarios`` records for the ``serve`` request prefix — and writes
their digests.  Rerun it only for a change that is meant to alter
records; a run on a pinned seed then checks the new digests.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate perfbench/pins.json")
    parser.add_argument("--seeds", default="0-63,7919")
    parser.add_argument("--workloads", default="table1,seed_sweep,serve",
                        help="the workloads to re-pin; the others keep their pins")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from repro.scenarios import Scenario, run_scenarios

    from perfbench import inputs, verdict, workloads

    chosen = args.workloads.split(",")
    pins = verdict.load_pins()
    for workload in chosen:
        pins[workload] = {}
    for seed in parse_seeds(args.seeds):
        if "table1" in chosen:
            records = []
            for p, names in enumerate(inputs.table1_inputs(seed)[:workloads.TABLE1_PIN_PASSES]):
                records.extend(workloads.table1_pass(names, p)[0])
            pins["table1"][str(seed)] = verdict.digest(records)

        if "seed_sweep" in chosen:
            cycles, cell_seeds = workloads.sweep_requests(seed)
            store_dir = workloads.fresh_dir("pin-")
            try:
                cold, _, _ = workloads.sweep_phase(next(cycles), cell_seeds, store_dir)
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
            pins["seed_sweep"][str(seed)] = verdict.digest([r for recs in cold for r in recs])

        if "serve" in chosen:
            prefix = [item["scenario"] for items in inputs.serve_inputs(seed)
                      for item in items[:inputs.SERVE_PREFIX]]
            keys = [json.dumps(s, sort_keys=True) for s in prefix]
            distinct = list(dict.fromkeys(keys))
            direct = run_scenarios([Scenario.from_dict(json.loads(k)) for k in distinct],
                                   workers=workloads.VERIFY_WORKERS)
            by_key = dict(zip(distinct, workloads.records_of(direct)))
            pins["serve"][str(seed)] = verdict.digest([by_key[k] for k in keys])
        print(f"seed {seed}: " + ", ".join(f"{w} {pins[w][str(seed)][:12]}" for w in chosen),
              flush=True)
    with open(verdict.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
