"""Content-addressed run store: resumable, crash-tolerant sweep caching.

A :class:`RunStore` is an on-disk cache of sweep *cell* results.  Each
cell — one ``(row serial, graph, adversary, f, seed)`` solver invocation
— is keyed by :func:`cell_key`, a SHA-256 over the canonical JSON of its
configuration **plus the record-schema version**, and maps to the list
of records the cell produced.  The executor in
:mod:`repro.analysis.experiments` streams completed cells into the store
as they finish (a batch group's cells in one commit) and, on a re-run,
skips every cell whose key is already present — so an interrupted sweep
over a big grid resumes where it died instead of recomputing, and a warm
store answers the whole sweep with zero solver calls.

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
Cells are committed with :meth:`RunStore.put_many` (:meth:`RunStore.put`
is its one-cell case): each touched shard gets its lines in one write,
and every touched shard is fsynced once, after all the writes, before
``put_many`` returns.  Loading tolerates torn or corrupt lines (a crash
mid-write, a truncated copy): a damaged line is treated as absent, at
open, or, when its ``{"key":...,"sha":"`` head is intact, from its first
:meth:`RunStore.get`, which digest-checks every hit and drops a line
that fails.  So the most a crash can cost is the commit in progress:
one batch group, whose cells finish together anyway, or one cell.

Several handles — processes or threads — may write one store at once.
Appends are line-atomic and every read is digest-checked, so writers
cannot corrupt each other, and a handle sees what the others append: on
a miss, :meth:`RunStore.get` indexes the lines appended to the key's
shard since the handle last looked (one ``os.stat`` per miss).  A line
without its trailing newline is an append still in progress (or torn
by a crash) and stays unindexed until it is complete; a commit that
finds one at the end of a shard starts its own lines on a fresh line.

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
import re
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["SCHEMA_VERSION", "RunStore", "cell_key"]

#: Version of the *record* schema (the dict shape produced by
#: :mod:`repro.analysis.metrics`).  Bump when record contents change
#: meaning; every cached entry keyed under the old version then misses.
SCHEMA_VERSION = 1

_META_NAME = "meta.json"
_SHARD_PREFIX = "shard-"


#: The one canonical encoder.  It keeps no state between calls, so
#: threads may share it; one instance spares a ``JSONEncoder`` per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The head :meth:`RunStore.put_many` writes on every line; open reads
#: a line's key from it without parsing the records.
_HEAD = re.compile(rb'\{"key":"([0-9a-f]{64})","sha":"')

#: How a commit opens a shard: appending, and readable, for the one-byte
#: look at a tail this handle has not indexed.
_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return _CANONICAL.encode(value)


def _records_sha(records: List[Dict]) -> str:
    """Integrity digest of a cell's record list."""
    return hashlib.sha256(_canonical_json(records).encode("utf-8")).hexdigest()


def _entry(raw: bytes) -> Optional[Dict]:
    """A shard line parsed: the JSON object when it has a string
    ``key``, and ``None`` for a torn or otherwise damaged line, which
    every reader treats as absent."""
    try:
        entry = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(entry, dict) and isinstance(entry.get("key"), str):
        return entry
    return None


def _write_all(fd: int, data: bytes) -> None:
    """``os.write`` until every byte of ``data`` is written."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _intact(entry: Optional[Dict]) -> bool:
    """Whether a parsed shard line (see :func:`_entry`) carries records
    that match its digest."""
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
    what other writers appended since.  The scan reads each line's key
    from the head :meth:`put` writes, not its records (a line in another
    spelling is parsed whole); record payloads stay on disk until
    :meth:`get` fetches and digest-checks them, so a store indexing
    millions of cells does not hold millions of records in memory.

    Durability: :meth:`put_many` commits a batch of cells (:meth:`put`
    one), and their lines are fsynced before it returns.  The most a
    crash can cost is the commit in progress: one batch group, whose
    cells finish together anyway, or one cell.

    ``hits``/``misses``/``puts`` count this handle's traffic (every plan
    command prints its hits and puts after its records; ``puts`` counts
    cells); ``dropped`` counts the indexed lines :meth:`get` found
    damaged and dropped.
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
        self.dropped = 0

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
    def _lines(shard: str, start: int = 0) -> Iterator[Tuple[int, bytes]]:
        """Every line of ``shard`` from byte ``start`` on, as ``(offset,
        raw bytes)``."""
        offset = start
        with open(shard, "rb") as fh:
            fh.seek(start)
            for raw in fh:
                yield offset, raw
                offset += len(raw)

    def _scan(self, shard: str, end: int = 0) -> None:
        """Index the complete lines of ``shard`` from byte ``end`` on.  A
        last line without its newline stays unindexed: another writer's
        append in progress, or one torn by a crash.  A line with put's
        head is indexed unparsed, so :meth:`get` drops it if its body
        turns out damaged."""
        self._torn_shards.discard(shard)
        for offset, raw in self._lines(shard, end):
            if not raw.endswith(b"\n"):
                self._torn_shards.add(shard)
                break
            end = offset + len(raw)
            head = _HEAD.match(raw)
            if head is not None:
                key = head.group(1).decode("ascii")
            else:
                entry = _entry(raw)
                if entry is None:
                    continue
                key = entry["key"]
            self._index[key] = (shard, offset, len(raw))
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

        Integrity is checked at read time: an entry that no longer
        parses, names another key, or whose digest no longer matches its
        records is dropped from the index, counted in ``dropped``, and
        treated as a miss (the executor recomputes and re-appends it).
        """
        loc = self._index.get(key)
        if loc is None:
            loc = self._catch_up(key)
        if loc is None:
            self.misses += 1
            return None
        shard, offset, length = loc
        try:
            # One raw read: for a ~400-byte line, a buffered open + seek
            # + read costs 2.5x as much.  No descriptor outlives the call.
            fd = os.open(shard, os.O_RDONLY | getattr(os, "O_BINARY", 0))
            try:
                os.lseek(fd, offset, os.SEEK_SET)
                raw = os.read(fd, length)
            finally:
                os.close(fd)
            obj = json.loads(raw.decode("utf-8"))
            records = obj["records"]
            if obj.get("key") != key or obj.get("sha") != _records_sha(records):
                raise ValueError("integrity check failed")
        except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError):
            del self._index[key]
            self.misses += 1
            self.dropped += 1
            return None
        self.hits += 1
        return records

    def put(self, key: str, records: List[Dict]) -> None:
        """Append one cell's records: :meth:`put_many` of one cell."""
        self.put_many([(key, records)])

    def put_many(self, cells: Iterable[Tuple[str, List[Dict]]]) -> None:
        """Append ``(key, records)`` cells in one commit.

        Each touched shard gets its lines in one write, in the order
        given; then every touched shard is fsynced once.  The lines are
        indexed and every descriptor is closed before this returns.
        Writing every shard before fsyncing any lets the disk flush them
        together (PERFORMANCE.md, "Cold writes").
        """
        batches: Dict[str, List[Tuple[str, bytes]]] = {}
        for key, records in cells:
            # Insertion order is the contract here: records must
            # round-trip through json.loads with their key order intact
            # (warm-store replays are byte-compared against freshly
            # computed records), and the envelope keys are literals.
            # Integrity is carried by `sha`, computed over canonical
            # sorted JSON.
            # repro: allow-unsorted-json — record key order is load-bearing
            line = json.dumps(
                {"key": key, "sha": _records_sha(records), "records": records},
                separators=(",", ":"),
            )
            batches.setdefault(self._shard_path(key), []).append(
                (key, (line + "\n").encode("utf-8")))
        fds: Dict[str, int] = {}
        starts: Dict[str, int] = {}  # shard -> where this commit's lines begin
        try:
            for shard, lines in batches.items():
                data = b"".join(line for _, line in lines)
                fd = fds[shard] = os.open(shard, _APPEND, 0o666)
                _write_all(fd, self._terminator(fd, shard) + data)
                # Taken after the append: another writer may have appended
                # to this shard since it was opened, and an append lands at
                # the end of the file as it is then.
                starts[shard] = os.lseek(fd, 0, os.SEEK_CUR) - len(data)
            for fd in fds.values():
                os.fsync(fd)
        finally:
            for fd in fds.values():
                os.close(fd)
        for shard, lines in batches.items():
            offset = starts[shard]
            # Nothing unindexed lies before these lines?  Otherwise another
            # writer appended first, and the next miss indexes both.
            contiguous = self._ends.get(shard, 0) == offset
            for key, line in lines:
                self._index[key] = (shard, offset, len(line))
                offset += len(line)
            if contiguous:
                self._ends[shard] = offset
            self._torn_shards.discard(shard)
            self.puts += len(lines)

    def _terminator(self, fd: int, shard: str) -> bytes:
        """``b"\\n"`` when the shard open at ``fd`` ends in a line without
        its newline, else ``b""``: an append after such a tail must start
        a fresh line, or it would merge into the garbage and vanish on
        reload.  Only bytes this handle has not indexed can hold such a
        tail, so a shard that ends where this handle's index does is not
        read."""
        size = os.lseek(fd, 0, os.SEEK_END)
        if size in (0, self._ends.get(shard, 0)):
            return b""
        os.lseek(fd, size - 1, os.SEEK_SET)
        return b"" if os.read(fd, 1) == b"\n" else b"\n"

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
            for _, raw in self._lines(shard):
                entry = _entry(raw)
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
            for _, raw in self._lines(shard):
                if not _intact(_entry(raw)):
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
            for _, raw in self._lines(shard):
                total += 1
                entry = _entry(raw)
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
        #: shards whose last line lacked its trailing newline when this
        #: handle last read them (a torn append), for verify and stats.
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
