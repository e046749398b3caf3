"""How fast a CPU runs Python right now, from a fixed reference job.

The benchmark runs on shared virtual machines whose speed moves by a
third or more within seconds, as neighbours come and go, and moves on
each virtual CPU on its own.  A wall time taken on such a machine says
as much about the neighbours as about the program.  So every timed run
pins its work to one CPU and also times :func:`reference_job`, a fixed
pure-Python job that shares no code with ``repro``, on that CPU between
its units of work (never while a unit runs), and reports each unit's
times scaled to a machine on which the job takes :data:`NOMINAL_S`::

    slowdown      = reference time / NOMINAL_S
    reported time = measured time / mean slowdown of the samples just
                    before and just after the unit

Latencies are scaled by one time-weighted slowdown for the whole run
instead (see ``workloads.run_slowdown``).

A change to ``repro`` moves the measured time and not the reference, so
it shows in full; a CPU that is 30% slower for a while stretches both,
and the scaling takes most of it out again.  The speed changes within
seconds, so the job is short, units are short (a fraction of a second
to about one second), and each is scaled by its own samples.

The job runs in a fresh interpreter of its own, pinned to the CPU (this
file run as a script: ``calibrate.py CPU`` reads a repetition count per
line from standard input and answers with the times as a JSON list), so
the state of the process under test, its heap above all, cannot slow
the reference down.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from collections import deque
from typing import List, Optional

#: Reference-job time, in seconds, on the machine the reported times are
#: scaled to: a round figure near the job's time on a quiet 2-vCPU Intel
#: Xeon VM with Python 3.11.  Fixed for good: changing it rescales every
#: time metric.
NOMINAL_S = 0.005

clock = time.perf_counter


def reference_job() -> str:
    """Build a seeded sparse graph, search it breadth-first from many
    sources, and digest the results as sorted JSON: the dict, list, set
    and small-object work a simulation round does, at a fixed size."""
    rng = random.Random(20210215)
    n = 400
    adj = {v: [] for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[v].append(u)
        adj[u].append(v)
    for _ in range(n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in adj[u]:
            adj[u].append(v)
            adj[v].append(u)
    rows = []
    for src in range(0, n, 12):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        far = max(dist.values())
        rows.append({"src": src, "ecc": far,
                     "rim": sorted(v for v, d in dist.items() if d == far)})
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process (and the processes it starts later) to one CPU,
    the highest it may use, and return it; ``None`` where the platform
    cannot pin."""
    cpu = usable_cpus()[-1]
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    return cpu


def usable_cpus() -> List[Optional[int]]:
    """The CPUs this process may run on (``[None]`` where unknown)."""
    if not hasattr(os, "sched_getaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))


class Speedometer:
    """Reference-job samples taken over one run, on one CPU.

    Owns the process that runs the job; use it as a context manager, so
    that the process is stopped on every way out."""

    def __init__(self, cpu: Optional[int]) -> None:
        #: Every reference-job time, in seconds.
        self.times: List[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, __file__, "" if cpu is None else str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            # The first run of a fresh interpreter is slow; leave it out.
            self.sample()
            self.times.clear()
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Speedometer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def sample(self, reps: int = 3) -> float:
        """Time the reference job ``reps`` times; returns the slowdown,
        their median over :data:`NOMINAL_S` (1.3 on a CPU running 30%
        slower than the nominal one)."""
        self._proc.stdin.write(f"{reps}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference-job process ended early")
        times = json.loads(line)
        self.times.extend(times)
        return statistics.median(times) / NOMINAL_S

    def note(self) -> str:
        return (f"reference job: {len(self.times)} times, "
                f"median {1000 * statistics.median(self.times):.2f} ms, range "
                f"{1000 * min(self.times):.2f}-{1000 * max(self.times):.2f} ms "
                f"(nominal {1000 * NOMINAL_S:.0f} ms)")


def main(argv: List[str]) -> None:
    if argv and argv[0]:
        os.sched_setaffinity(0, {int(argv[0])})
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            t0 = clock()
            reference_job()
            times.append(clock() - t0)
        print(json.dumps(times), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
