#!/usr/bin/env python3
"""Scaling study: measured round growth vs the paper's bounds.

Runs the gathered-start algorithms (Table 1 rows 4, 5, 7) across ring
sizes, fits power laws, and prints the separation the paper proves:
the pairing tournament (O(n⁴) bound) carries one extra factor of n over
the group schemes (O(n³) bounds).  Mapping slots are sized by a dry run
on the actual graph, not by T2 = O(n³) (EXPERIMENTS.md, "What is
simulated and what is charged"), so on sparse rings the absolute
exponents sit about one power below the paper's while the separation —
the paper's claim — holds.  On cliques the fitted exponents match the
bounds (tests/test_reproduction_certificate.py).

Run:  python examples/scaling_study.py [n1,n2,...]
"""

import sys

from repro.analysis import fit_power_law, render_table
from repro.graphs import ring
from repro.scenarios import scaling_grid

sizes = (
    tuple(int(x) for x in sys.argv[1].split(",")) if len(sys.argv) > 1
    else (6, 9, 12, 15)
)
graphs = [ring(n, seed=1) for n in sizes]

rows = []
fits = {}
for serial, label in ((4, "row 4 / Thm 3 (pairing, O(n^4))"),
                      (5, "row 5 / Thm 4 (3 groups, O(n^3))"),
                      (7, "row 7 / Thm 6 (strong, O(n^3))")):
    records = scaling_grid(serial, graphs, "squatter", seed=1).run()
    assert all(r["success"] for r in records)
    ns = [r["n"] for r in records]
    totals = [r["rounds_total"] for r in records]
    fit = fit_power_law(ns, totals)
    fits[serial] = fit
    for n, t in zip(ns, totals):
        rows.append({"algorithm": label, "n": n, "rounds": t})
    rows.append(
        {"algorithm": label, "n": "alpha", "rounds": f"{fit.alpha:.2f} (R2={fit.r2:.2f})"}
    )

print(render_table(rows, title="Scaling on rings (f at each row's tolerance)"))

gap = fits[4].alpha - fits[5].alpha
print(f"\npairing vs groups exponent gap: {gap:.2f}  (paper predicts ~1.0)")
print(f"group schemes agree with each other: "
      f"|{fits[5].alpha:.2f} - {fits[7].alpha:.2f}| = {abs(fits[5].alpha - fits[7].alpha):.2f}")
