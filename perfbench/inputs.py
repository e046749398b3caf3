"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed and imports
nothing from ``repro``: the program under test only ever sees what these
functions generate.  Graphs are named by ``(n, base seed)``; the
workloads turn a name into a graph the way ``repro table1`` does, by
trying ``random_connected(n, seed=base), (n, base + 1), ...`` until the
row's graph class admits one.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

#: The seed the benchmark was developed on, and one held out from that
#: work to check a claimed gain on.
DEV_SEED = 1
HELDOUT_SEED = 7919

TABLE1_SIZES = (9, 12)
TABLE1_STRATEGIES = ("squatter", "ghost_squatter", "idle")
#: Passes generated per seed (one graph of each size per pass); a run
#: uses as many as its time allows.
TABLE1_PASSES = 48

SWEEP_SIZES = (12, 16)
SWEEP_GRAPHS_PER_SIZE = 4
SWEEP_SEEDS = 128
#: Cycles generated per seed (each with its own graphs).
SWEEP_CYCLES = 48
#: The strategies the row-1 batch engine supports.
SWEEP_STRATEGIES = ("squatter", "idle", "crash", "flag_spammer")

SERVE_SIZES = (7, 9)
SERVE_GRAPHS_PER_SIZE = 64
SERVE_ROWS = (2, 3, 4, 5, 7)
SERVE_STRATEGIES = ("squatter", "ghost_squatter", "idle")
SERVE_CLIENTS = 2
#: The request mix of ``tools/load_serve.py`` at its defaults: six
#: distinct cold cells, the same six again (answered warm), and one
#: fresh cell sent by every client at once (dedup).  Every block a
#: client sends is these 13 requests, in that order.
SERVE_COLD_PER_BLOCK = 6
SERVE_BLOCK = "C" * SERVE_COLD_PER_BLOCK + "W" * SERVE_COLD_PER_BLOCK + "D"
#: Blocks in one client's list (an upper bound; a run stops when time
#: is up).
SERVE_BLOCKS = 400
#: Every run completes at least this many requests per client, and the
#: pinned digest covers exactly these (ten blocks).
SERVE_PREFIX = 10 * len(SERVE_BLOCK)

GraphName = Tuple[int, int]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _graph_names(rng: random.Random, sizes, per_size: int) -> List[GraphName]:
    return [(n, rng.randrange(1_000_000)) for n in sizes for _ in range(per_size)]


def table1_inputs(seed: int) -> List[List[GraphName]]:
    """Per pass, the graphs one Table 1 reproduction samples."""
    rng = _rng("table1", seed)
    return [_graph_names(rng, TABLE1_SIZES, 1) for _ in range(TABLE1_PASSES)]


def sweep_inputs(seed: int) -> Dict:
    """Per cycle, the graphs of the row-1 seed sweep; and its cell seeds."""
    rng = _rng("seed_sweep", seed)
    seeds = rng.sample(range(1_000_000), SWEEP_SEEDS)
    cycles = [_graph_names(rng, SWEEP_SIZES, SWEEP_GRAPHS_PER_SIZE)
              for _ in range(SWEEP_CYCLES)]
    return {"cycles": cycles, "seeds": seeds}


def _scenarios(rng: random.Random, graphs: List[GraphName]) -> Iterator[Dict]:
    """Scenarios in rounds of every (row, n, strategy) class once, each
    round shuffled, on a graph of that size drawn at random.  A cell's
    cost depends mostly on its row and n, so with every class equally
    often, runs on different seeds carry the same mix of work."""
    by_size = {n: [name for name in graphs if name[0] == n] for n in SERVE_SIZES}
    classes = [(row, n, strategy) for row in SERVE_ROWS for n in SERVE_SIZES
               for strategy in SERVE_STRATEGIES]
    while True:
        rng.shuffle(classes)
        for row, n, strategy in classes:
            _, graph_seed = rng.choice(by_size[n])
            yield {
                "algorithm": row,
                "graph": {"family": "random_connected", "args": {"n": n, "seed": graph_seed}},
                "strategy": strategy,
                "f": "max",
                "seed": rng.randrange(2 ** 31),
            }


def serve_inputs(seed: int) -> List[List[Dict]]:
    """One request list per client: ``{"kind", "scenario"}`` items.

    Cold scenarios draw a fresh 31-bit run seed, so they are distinct
    cells; warm items repeat the block's cold ones in the same order;
    dedup items sit at the same positions in every list and hold the
    same scenario.
    """
    rng = _rng("serve", seed)
    graphs = _graph_names(rng, SERVE_SIZES, SERVE_GRAPHS_PER_SIZE)
    dedup = list(itertools.islice(_scenarios(rng, graphs), SERVE_BLOCKS))
    lists = []
    for _ in range(SERVE_CLIENTS):
        scenarios = _scenarios(rng, graphs)
        items: List[Dict] = []
        for block in range(SERVE_BLOCKS):
            cold = list(itertools.islice(scenarios, SERVE_COLD_PER_BLOCK))
            items.extend({"kind": "cold", "scenario": s} for s in cold)
            items.extend({"kind": "warm", "scenario": s} for s in cold)
            items.append({"kind": "dedup", "scenario": dedup[block]})
        lists.append(items)
    return lists
