"""Content-addressed run store: resumable, crash-tolerant sweep caching.

A :class:`RunStore` is an on-disk cache of sweep *cell* results.  Each
cell — one ``(row serial, graph, adversary, f, seed)`` solver invocation
— is keyed by :func:`cell_key`, a SHA-256 over the canonical JSON of its
configuration **plus the record-schema version**, and maps to the list
of records the cell produced.  The executor in
:mod:`repro.analysis.experiments` streams completed cells into the store
as they finish and, on a re-run, skips every cell whose key is already
present — so an interrupted sweep over a big grid resumes where
it died instead of recomputing, and a warm store answers the whole sweep
with zero solver calls.

Layout
------
A store is a directory::

    <path>/meta.json        {"format": "repro-run-store", "schema_version": N}
    <path>/shard-ab.jsonl   one JSON line per completed cell

Shards are named by the first two hex digits of the cell key (up to 256
shards), which keeps any one file small and append cheap.  Each line is
``{"key": ..., "sha": ..., "records": [...]}`` where ``sha`` is a
digest of the canonical records JSON.

Durability
----------
Appends are atomic at the line level: a line is written with a single
buffered write, flushed, and fsynced before :meth:`RunStore.put`
returns.  Loading tolerates torn or corrupt lines (a crash mid-append, a
truncated copy): any line that fails to parse — or whose ``sha`` does
not match its records at read time — is silently treated as absent, so
the worst a crash can cost is the one cell that was being appended.

Several handles — processes or threads — may write one store at once.
Appends are line-atomic and every read is digest-checked, so writers
cannot corrupt each other, and a handle sees what the others append: on
a miss, :meth:`RunStore.get` indexes the lines appended to the key's
shard since the handle last looked (one ``os.stat`` per miss).  A line
without its trailing newline is an append still in progress (or torn
by a crash) and stays unindexed until it is complete.

Invalidation
------------
The record-schema version is folded into every key, so bumping
:data:`SCHEMA_VERSION` (because record contents changed meaning) orphans
all old entries rather than serving stale shapes; the store file format
itself never needs migrating.  ``meta.json`` records the creating
version for external tooling.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["SCHEMA_VERSION", "RunStore", "cell_key"]

#: Version of the *record* schema (the dict shape produced by
#: :mod:`repro.analysis.metrics`).  Bump when record contents change
#: meaning; every cached entry keyed under the old version then misses.
SCHEMA_VERSION = 1

_META_NAME = "meta.json"
_SHARD_PREFIX = "shard-"


def _canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _records_sha(records: List[Dict]) -> str:
    """Integrity digest of a cell's record list."""
    return hashlib.sha256(_canonical_json(records).encode("utf-8")).hexdigest()


def _intact(entry: Optional[Dict]) -> bool:
    """Whether a parsed shard line (see :meth:`RunStore._lines`) carries
    records that match its digest."""
    return (entry is not None and "records" in entry
            and entry.get("sha") == _records_sha(entry["records"]))


def cell_key(
    kind: str,
    serial: int,
    graph,
    adversary,
    f: Optional[int],
    seed: int,
    schema_version: int = SCHEMA_VERSION,
    **axes: object,
) -> str:
    """Canonical content hash identifying one sweep cell.

    ``graph`` is a JSON-safe graph fingerprint (canonical
    :class:`~repro.graphs.specs.GraphSpec` form, or a CSR content hash
    for hand-built graphs) and ``adversary`` a canonical adversary
    descriptor (:meth:`~repro.byzantine.adversary.Adversary.descriptor`).
    Two cells collide exactly when they would run the identical solver
    invocation under the identical record schema.

    ``axes`` are hashed as given; the caller passes
    :meth:`Scenario.axes() <repro.scenarios.Scenario.axes>`, the axes set
    away from their :data:`~repro.scenarios.AXES` defaults.  A default
    cell passes none, so its key is the one it had before any axis
    existed: existing stores stay warm as axes are introduced, and no
    schema bump is needed when one arrives, because default records are
    unchanged and non-default cells cannot alias old keys.
    """
    config = {
        "kind": kind,
        "serial": serial,
        "graph": graph,
        "adversary": adversary,
        "f": f,
        "seed": seed,
        "schema": schema_version,
        **axes,
    }
    payload = _canonical_json(config)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class RunStore:
    """Append-only, content-addressed store of sweep-cell records.

    Opening a store scans its shards once to build an in-memory
    ``key -> (shard, offset, length)`` index, which a miss extends with
    what other writers appended since; record payloads stay on disk
    until :meth:`get` fetches them, so a store indexing millions of
    cells does not hold millions of records in memory.

    ``hits``/``misses``/``puts`` count this handle's traffic (every plan
    command prints its hits and puts after its records).
    """

    def __init__(self, path: str):
        self.path = str(path)
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot use {self.path!r} as a run store: {exc}"
            )
        self._init_meta()
        self._reload()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    # ----------------------------------------------------------------- #
    # Metadata
    # ----------------------------------------------------------------- #

    def _init_meta(self) -> None:
        meta_path = os.path.join(self.path, _META_NAME)
        if os.path.exists(meta_path):
            try:
                with open(meta_path, "r", encoding="utf-8") as fh:
                    meta = json.load(fh)
            except (ValueError, OSError) as exc:
                raise ConfigurationError(
                    f"{meta_path} is not a run-store meta file: {exc}"
                )
            if not isinstance(meta, dict) or meta.get("format") != "repro-run-store":
                raise ConfigurationError(
                    f"{self.path} exists but is not a run store"
                )
            #: schema version the store was created under; entries of
            #: other versions simply never hit (version is in the key).
            self.created_schema_version = meta.get("schema_version")
            return
        self.created_schema_version = SCHEMA_VERSION
        tmp = meta_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"format": "repro-run-store", "schema_version": SCHEMA_VERSION},
                fh,
                sort_keys=True,
            )
            fh.write("\n")
        os.replace(tmp, meta_path)

    # ----------------------------------------------------------------- #
    # Index / shards
    # ----------------------------------------------------------------- #

    def _shard_path(self, key: str) -> str:
        return os.path.join(self.path, f"{_SHARD_PREFIX}{key[:2]}.jsonl")

    def _shard_files(self) -> List[str]:
        return sorted(
            os.path.join(self.path, name)
            for name in os.listdir(self.path)
            if name.startswith(_SHARD_PREFIX) and name.endswith(".jsonl")
        )

    @staticmethod
    def _lines(shard: str, start: int = 0) -> Iterator[Tuple[int, bytes, Optional[Dict]]]:
        """Every line of ``shard`` from byte ``start`` on, as ``(offset,
        raw bytes, entry)``: ``entry`` is the parsed line when it is a
        JSON object with a string ``key``, and ``None`` for a torn or
        otherwise damaged line, which every reader treats as absent."""
        offset = start
        with open(shard, "rb") as fh:
            fh.seek(start)
            for raw in fh:
                try:
                    entry = json.loads(raw.decode("utf-8"))
                except (ValueError, UnicodeDecodeError):
                    entry = None
                if not (isinstance(entry, dict) and isinstance(entry.get("key"), str)):
                    entry = None
                yield offset, raw, entry
                offset += len(raw)

    def _scan(self, shard: str, end: int = 0) -> None:
        """Index the complete lines of ``shard`` from byte ``end`` on.  A
        last line without its newline stays unindexed: another writer's
        append in progress, or one torn by a crash."""
        self._torn_shards.discard(shard)
        for offset, raw, entry in self._lines(shard, end):
            if not raw.endswith(b"\n"):
                self._torn_shards.add(shard)
                break
            end = offset + len(raw)
            if entry is not None:
                self._index[entry["key"]] = (shard, offset, len(raw))
        self._ends[shard] = end

    def _catch_up(self, key: str) -> Optional[Tuple[str, int, int]]:
        """After a miss: index what other writers appended to ``key``'s
        shard since this handle last looked, and look again."""
        shard = self._shard_path(key)
        end = self._ends.get(shard, 0)
        try:
            if os.stat(shard).st_size > end:
                self._scan(shard, end)
        except FileNotFoundError:  # no such shard (yet)
            pass
        return self._index.get(key)

    # ----------------------------------------------------------------- #
    # Read / write
    # ----------------------------------------------------------------- #

    def get(self, key: str) -> Optional[List[Dict]]:
        """The records cached for ``key``, or ``None``.

        Integrity is checked at read time: an entry whose digest no
        longer matches its records is dropped from the index and treated
        as a miss (the executor recomputes and re-appends it).
        """
        loc = self._index.get(key)
        if loc is None:
            loc = self._catch_up(key)
        if loc is None:
            self.misses += 1
            return None
        shard, offset, length = loc
        try:
            with open(shard, "rb") as fh:
                fh.seek(offset)
                raw = fh.read(length)
            obj = json.loads(raw.decode("utf-8"))
            records = obj["records"]
            if obj.get("key") != key or obj.get("sha") != _records_sha(records):
                raise ValueError("integrity check failed")
        except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError):
            del self._index[key]
            self.misses += 1
            return None
        self.hits += 1
        return records

    def put(self, key: str, records: List[Dict]) -> None:
        """Append one cell's records; atomic at line granularity."""
        # Insertion order is the contract here: records must round-trip
        # through json.loads with their key order intact (warm-store
        # replays are byte-compared against freshly computed records),
        # and the envelope keys are literals.  Integrity is carried by
        # `sha`, computed over canonical sorted JSON.
        # repro: allow-unsorted-json — record key order is load-bearing
        line = json.dumps(
            {"key": key, "sha": _records_sha(records), "records": records},
            separators=(",", ":"),
        )
        data = (line + "\n").encode("utf-8")
        shard = self._shard_path(key)
        # A shard ending in a torn line must be terminated first, or this
        # append would merge into the garbage and vanish on reload.
        prefix = b"\n" if shard in self._torn_shards else b""
        with open(shard, "ab") as fh:
            fh.write(prefix + data)
            fh.flush()
            # Taken after the append: another writer may have appended to
            # this shard since it was opened, and an append lands at the
            # end of the file as it is then.
            offset = fh.tell() - len(data)
            os.fsync(fh.fileno())
        self._torn_shards.discard(shard)
        self._index[key] = (shard, offset, len(data))
        if self._ends.get(shard, 0) == offset:
            # Nothing unindexed lies before this line.  Otherwise another
            # writer appended first, and the next miss indexes both.
            self._ends[shard] = offset + len(data)
        self.puts += 1

    # ----------------------------------------------------------------- #
    # Maintenance
    # ----------------------------------------------------------------- #

    def verify(self) -> Dict:
        """Full-store integrity scan; returns a structured report.

        Every shard line is parsed and digest-checked — not just the
        indexed ones, so superseded duplicates and torn tails are
        counted too.  Nothing is modified; ``ok`` is True exactly when
        every *live* (index-winning) entry checks out, because dead
        bytes cost space, not answers.  Report keys::

            ok             True iff no live entry is corrupt
            cells          live (indexed) entries
            verified       live entries whose digest matched
            corrupt        live entries that failed the digest check
            corrupt_keys   their cell keys (sorted)
            stale_lines    parseable lines superseded by a later put
            torn_lines     lines that are no keyed entry (crash-torn appends etc.)
            torn_shards    shards whose final line lacks a newline
        """
        live: Dict[str, bool] = {}  # key -> whether its winning line verifies
        stale_lines = 0
        torn_lines = 0
        for shard in self._shard_files():
            for _, _, entry in self._lines(shard):
                if entry is None or "sha" not in entry or "records" not in entry:
                    torn_lines += 1
                    continue
                key = entry["key"]
                if key in live:
                    stale_lines += 1  # earlier line loses to this one
                live[key] = _intact(entry)
        corrupt_keys = [key for key, good in live.items() if not good]
        verified = len(live) - len(corrupt_keys)
        return {
            "ok": not corrupt_keys,
            "cells": len(live),
            "verified": verified,
            "corrupt": len(corrupt_keys),
            "corrupt_keys": sorted(corrupt_keys),
            "stale_lines": stale_lines,
            "torn_lines": torn_lines,
            "torn_shards": len(self._torn_shards),
        }

    def repair(self) -> Dict:
        """Drop corrupt entries and rewrite damaged shards in place.

        Each shard containing a torn line or a digest-failing live entry
        is rewritten atomically (temp file + ``fsync`` + ``os.replace``)
        keeping only lines that parse *and* verify; healthy shards are
        untouched.  Superseded duplicates survive repair — reclaiming
        them is :meth:`compact`'s job.  The in-memory index is rebuilt.
        Returns ``{"repaired_shards": n, "dropped_lines": n,
        "cells": live-entry count after repair}``.
        """
        repaired = 0
        dropped = 0
        for shard in self._shard_files():
            keep: List[bytes] = []
            dirty = False
            for _, raw, entry in self._lines(shard):
                if not _intact(entry):
                    dirty = True
                    dropped += 1
                    continue
                if not raw.endswith(b"\n"):
                    raw += b"\n"  # valid JSON, just missing its newline
                    dirty = True
                keep.append(raw)
            if not dirty:
                continue
            self._rewrite_shard(shard, keep)
            repaired += 1
        self._reload()
        return {
            "repaired_shards": repaired,
            "dropped_lines": dropped,
            "cells": len(self._index),
        }

    def compact(self) -> Dict:
        """Rewrite every shard keeping only the winning line per key.

        Reclaims the space of superseded duplicates and sheds torn or
        corrupt lines as a side effect (a corrupt line never wins its
        key).  Rewrites are atomic per shard; a crash mid-compaction
        leaves each shard either fully old or fully new — both readable.
        Returns ``{"reclaimed_bytes": n, "dropped_lines": n,
        "cells": live-entry count}``.
        """
        before = sum(os.path.getsize(s) for s in self._shard_files())
        dropped = 0
        for shard in self._shard_files():
            winners: Dict[str, bytes] = {}
            total = 0
            for _, raw, entry in self._lines(shard):
                total += 1
                if not _intact(entry):
                    continue
                if not raw.endswith(b"\n"):
                    raw += b"\n"
                winners[entry["key"]] = raw  # later line wins
            if total == len(winners):
                continue  # nothing to reclaim
            dropped += total - len(winners)
            self._rewrite_shard(shard, list(winners.values()))
        self._reload()
        after = sum(os.path.getsize(s) for s in self._shard_files())
        return {
            "reclaimed_bytes": before - after,
            "dropped_lines": dropped,
            "cells": len(self._index),
        }

    def _rewrite_shard(self, shard: str, lines: List[bytes]) -> None:
        """Atomically replace ``shard`` with ``lines`` (or delete it if
        empty); the temp file is fsynced before the rename so a crash
        cannot leave a half-written replacement."""
        if not lines:
            os.remove(shard)
            return
        tmp = shard + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"".join(lines))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, shard)

    def _reload(self) -> None:
        """Build the index from disk: at open, and after a maintenance
        rewrite."""
        #: key -> (shard path, byte offset, byte length); later lines win.
        self._index: Dict[str, Tuple[str, int, int]] = {}
        #: shard -> the byte offset up to which its lines are indexed.
        self._ends: Dict[str, int] = {}
        #: shards whose last line lacks a trailing newline (torn append):
        #: the next put must start on a fresh line or it would merge into
        #: the garbage and be skipped by every later load.
        self._torn_shards: set = set()
        for shard in self._shard_files():
            self._scan(shard)

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    def stats(self) -> Dict:
        """Inspectable on-disk facts (``repro store stats``): shard
        count, indexed cells, byte totals, and schema versions — without
        anyone having to read JSONL by hand.

        ``bytes`` is the shard payload on disk (meta.json excluded);
        ``indexed_bytes`` the bytes the live index points at — the gap is
        superseded or corrupt lines a future compaction could reclaim.
        """
        shards = self._shard_files()
        shard_bytes = 0
        for shard in shards:
            try:
                shard_bytes += os.path.getsize(shard)
            except OSError:
                pass
        return {
            "path": self.path,
            "format": "repro-run-store",
            "schema_version": SCHEMA_VERSION,
            "created_schema_version": self.created_schema_version,
            "shards": len(shards),
            "cells": len(self._index),
            "bytes": shard_bytes,
            "indexed_bytes": sum(length for _, _, length in self._index.values()),
            "torn_shards": len(self._torn_shards),
        }

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._index)

    def keys(self) -> Iterator[str]:
        return iter(self._index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunStore({self.path!r}, entries={len(self._index)}, "
            f"schema_version={SCHEMA_VERSION})"
        )
