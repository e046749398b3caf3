"""Aggregation of run results into experiment records.

A *record* is a flat dict (easy to tabulate / serialise) describing one
run: configuration keys plus outcome metrics.  Sweeps in
:mod:`repro.analysis.experiments` produce lists of records; the tables
module renders them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..sim.report import RunReport

__all__ = ["record_from_report", "success_rate", "summarize"]


def record_from_report(report: RunReport, **config) -> Dict:
    """Flatten a :class:`RunReport` plus its configuration into a record.

    A run under a non-default activation scheduler (its canonical spec
    sits in ``report.meta["scheduler"]``) additionally records the
    ``scheduler`` spec and the ``activations`` tally.  Synchronous-
    default records deliberately carry **neither** key: their byte shape
    — and therefore every cached store cell a legacy sweep wrote — must
    stay exactly the historical one.
    """
    rec = dict(config)
    rec.update(
        success=report.success,
        rounds_simulated=report.rounds_simulated,
        rounds_charged=report.rounds_charged,
        rounds_total=report.rounds_total,
        n_violations=len(report.violations),
    )
    for key in ("theorem", "f", "n", "strategy"):
        if key in report.meta and key not in rec:
            rec[key] = report.meta[key]
    if "scheduler" in report.meta:
        rec.setdefault("scheduler", report.meta["scheduler"])
        rec.setdefault("activations", report.activations)
    return rec


def success_rate(records: Iterable[Dict]) -> float:
    """Fraction of records *that ran* with ``success=True``.

    Empty input returns ``nan``, not 1.0: a sweep in which **no row was
    applicable** has no evidence of success, and reporting it as perfect
    silently masked filtered-out-everything bugs in aggregation.
    Callers that want "vacuously fine" must say so explicitly.

    Quarantined failure records (``failed=True``, from the executor's
    retry-exhaustion path) are **excluded from both numerator and
    denominator**: they are infrastructure casualties (a crashed or hung
    worker), not protocol outcomes, and letting them dilute the rate
    made the same record set disagree with
    :meth:`~repro.scenarios.ResultSet.failures` about what "failed"
    means.  They surface separately — ``failures()`` on a result set,
    the ``failed`` count column in :func:`summarize` — and a set of
    *only* quarantine records reports ``nan`` (no run ever executed, so
    there is no rate).  Runs that executed and merely did not disperse
    (``success=False`` without ``failed``) count against the rate as
    always.
    """
    ran = [r for r in records if not r.get("failed")]
    if not ran:
        return float("nan")
    return sum(1 for r in ran if r.get("success")) / len(ran)


def summarize(records: List[Dict], group_by: str, missing=None) -> List[Dict]:
    """Group records by a key; report success rate and round statistics.

    An empty record list summarises to an empty list (explicitly —
    never a vacuous all-success row; see :func:`success_rate`).  Groups
    are always non-empty by construction, so per-group rates are never
    ``nan``.

    ``missing`` labels records that lack the key entirely.  Default-
    valued axes omit their key from records for cache compatibility, so
    e.g. a scheduler matrix groups cleanly with
    ``summarize(records, "scheduler", missing="synchronous")``.

    Quarantined failure records (``failed=True``) have no round metrics
    and no protocol outcome; they count toward ``runs`` but are excluded
    from ``success_rate`` exactly as :func:`success_rate` excludes them
    — numerator *and* denominator — so the round statistics and the rate
    agree on which records "ran".  A group that contains any failure
    gains a ``failed`` count column; clean summaries are byte-identical
    to the pre-fault-tolerance shape.  A group of *only* failures
    reports ``nan`` for the rate and the round statistics alike (nothing
    ran, so there is nothing to average).
    """
    if not records:
        return []
    groups: Dict = {}
    for r in records:
        groups.setdefault(r.get(group_by, missing), []).append(r)
    out = []
    any_failed = any(r.get("failed") for r in records)
    for key in sorted(groups, key=lambda k: (str(type(k)), k)):
        rs = groups[key]
        ran = [r for r in rs if not r.get("failed")]
        sims = [r["rounds_simulated"] for r in ran]
        totals = [r["rounds_total"] for r in ran]
        row = {
            group_by: key,
            "runs": len(rs),
            "success_rate": success_rate(rs),
            "rounds_simulated_mean": sum(sims) / len(sims) if sims else float("nan"),
            "rounds_simulated_max": max(sims) if sims else float("nan"),
            "rounds_total_mean": sum(totals) / len(totals) if totals else float("nan"),
        }
        if any_failed:
            row["failed"] = len(rs) - len(ran)
        out.append(row)
    return out
