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
    <path>/shard-log.jsonl  one JSON line per committed cell

Every commit appends to the one log.  Each line is ``{"key": ...,
"sha": ..., "records": [...]}`` where ``sha`` is a digest of the
canonical records JSON.  Stores written before v1.24.0 spread their
lines over up to 256 key-prefix shards, ``shard-<key[:2]>.jsonl``.
Open indexes every ``shard-*.jsonl`` file in sorted order, later lines
winning, and the log's name sorts after ``shard-ff.jsonl``: such a
store opens fully warm, and where a legacy shard and the log both hold
a key, the log's line wins.  To a v1.23.0 handle the log is one more
shard, so it opens a store written here fully warm too.
:meth:`RunStore.compact` folds every file into the log.

Durability
----------
Cells are committed with :meth:`RunStore.put_many` (:meth:`RunStore.put`
is its one-cell case): one write of all the commit's lines to the log,
then one fsync, before ``put_many`` returns.  A file's fsync does not
make its directory entry durable, so the store directory is fsynced too
after the commit that creates the log, after ``meta.json`` is renamed
into place and after every maintenance rewrite.  Loading tolerates torn
or corrupt lines (a crash mid-write, a truncated copy): a damaged line
is treated as absent, at open, or, when its ``{"key":...,"sha":"`` head
is intact, from its first :meth:`RunStore.get`, which digest-checks
every hit and drops a line that fails.  So the most a crash can cost is
the commit in progress: one batch group, whose cells finish together
anyway, or one cell.

Several handles — processes or threads — may write one store at once.
A commit is one append, so its lines land whole and together, every
read is digest-checked, and writers cannot corrupt each other.  A
handle sees what the others append: on a miss, :meth:`RunStore.get`
indexes the lines appended to the log since the handle last looked (one
``os.stat`` per miss).  A line without its trailing newline is an
append still in progress (or torn by a crash) and stays unindexed until
it is complete; a commit that finds one at the end of the log starts
its own lines on a fresh line.  A v1.23.0 writer appends to key-prefix
shards instead: a handle sees those lines at its next open, not by
catch-up.

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
#: The log every commit appends to: a ``shard-*.jsonl`` name, so open
#: indexes it with the key-prefix shards of older stores, and one that
#: sorts after ``shard-ff.jsonl``, so its lines win the scan.
_LOG_NAME = "shard-log.jsonl"


#: The one canonical encoder.  It keeps no state between calls, so
#: threads may share it; one instance spares a ``JSONEncoder`` per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: The head :meth:`RunStore.put_many` writes on every line; open reads
#: a line's key from it without parsing the records.
_HEAD = re.compile(rb'\{"key":"([0-9a-f]{64})","sha":"')

_BINARY = getattr(os, "O_BINARY", 0)

#: How a commit opens the log: appending, and readable, for the one-byte
#: look at a tail this handle has not indexed.
_APPEND = os.O_RDWR | os.O_APPEND | os.O_CREAT | _BINARY


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


def _fsync_dir(path: str) -> None:
    """Fsync the directory ``path``, making the entries created or
    renamed in it durable: a file's fsync does not (fsync(2)).  Skipped
    where a directory cannot be opened, as on Windows."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace(path: str, data: bytes) -> None:
    """Atomically make ``data`` the contents of ``path``: write a temp
    file, fsync it, rename it over ``path`` and fsync the directory, so
    a crash leaves the old file or the new one, and the new one is
    durable when this returns."""
    tmp = path + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | _BINARY, 0o666)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path))


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

    Opening a store scans its files once to build an in-memory ``key ->
    (file, offset, length)`` index.  The scan reads each line's key from
    the head :meth:`put` writes, not its records (a line in another
    spelling is parsed whole); record payloads stay on disk until
    :meth:`get` fetches and digest-checks them, so a store indexing
    millions of cells does not hold millions of records in memory.

    Layout: every commit appends to one log, ``shard-log.jsonl``, and
    open indexes every ``shard-*.jsonl`` file in sorted order, so a
    store of v1.23.0's key-prefix shards opens fully warm and the log
    wins a key both hold.

    Durability: :meth:`put_many` commits a batch of cells (:meth:`put`
    one) with one write and one fsync of the log before it returns, and
    the commit that creates the log fsyncs the store directory too.  The
    most a crash can cost is the commit in progress: one batch group,
    whose cells finish together anyway, or one cell.

    Several writers: a miss indexes what other handles appended to the
    log since this one looked; lines a v1.23.0 writer appends to its
    key-prefix shards show at this handle's next open, not by catch-up.

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
        self._log = os.path.join(self.path, _LOG_NAME)
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
        meta = json.dumps(
            {"format": "repro-run-store", "schema_version": SCHEMA_VERSION},
            sort_keys=True,
        )
        _replace(meta_path, (meta + "\n").encode("utf-8"))

    # ----------------------------------------------------------------- #
    # Index / files
    # ----------------------------------------------------------------- #

    def _shard_files(self) -> List[str]:
        """Every file open indexes, in the order it indexes them: the key-
        prefix shards of stores written before v1.24.0, then the log."""
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
        """After a miss: index what other writers appended to the log
        since this handle last looked, and look again."""
        end = self._ends.get(self._log, 0)
        try:
            if os.stat(self._log).st_size > end:
                self._scan(self._log, end)
        except FileNotFoundError:  # no log (yet)
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
            fd = os.open(shard, os.O_RDONLY | _BINARY)
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
        """Append ``(key, records)`` cells to the log in one commit.

        The lines, in the order given, go to the log in one write, so
        other writers' appends land before or after them, never between;
        then the log is fsynced once, and the commit that creates the log
        fsyncs the store directory too.  The lines are indexed and the
        descriptor closed before this returns.  One file makes a commit
        one fsync however many keys it holds (PERFORMANCE.md, "One log
        per store (v1.24.0)").  Beside a v1.23.0 writer, each handle sees
        the other's lines at its next open, not by catch-up: this one's
        catch-up reads the log, a v1.23.0 handle's the key's prefix shard.
        """
        lines: List[Tuple[str, bytes]] = []
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
            lines.append((key, (line + "\n").encode("utf-8")))
        if not lines:
            return
        log = self._log
        data = b"".join(line for _, line in lines)
        fd = os.open(log, _APPEND, 0o666)
        try:
            size = os.lseek(fd, 0, os.SEEK_END)
            _write_all(fd, self._terminator(fd, size) + data)
            # Taken after the append: another writer may have appended to
            # the log since it was opened, and an append lands at the end
            # of the file as it is then.
            offset = os.lseek(fd, 0, os.SEEK_CUR) - len(data)
            os.fsync(fd)
        finally:
            os.close(fd)
        if size == 0:  # this commit created the log
            _fsync_dir(self.path)
        # Nothing unindexed lies before these lines?  Otherwise another
        # writer appended first, and the next miss indexes both.
        contiguous = self._ends.get(log, 0) == offset
        for key, line in lines:
            self._index[key] = (log, offset, len(line))
            offset += len(line)
        if contiguous:
            self._ends[log] = offset
        self._torn_shards.discard(log)
        self.puts += len(lines)

    def _terminator(self, fd: int, size: int) -> bytes:
        """``b"\\n"`` when the log open at ``fd``, ``size`` bytes long,
        ends in a line without its newline, else ``b""``: an append after
        such a tail must start a fresh line, or it would merge into the
        garbage and vanish on reload.  Only bytes this handle has not
        indexed can hold such a tail, so a log that ends where this
        handle's index does is not read."""
        if size in (0, self._ends.get(self._log, 0)):
            return b""
        os.lseek(fd, size - 1, os.SEEK_SET)
        return b"" if os.read(fd, 1) == b"\n" else b"\n"

    # ----------------------------------------------------------------- #
    # Maintenance
    # ----------------------------------------------------------------- #

    def verify(self) -> Dict:
        """Full-store integrity scan; returns a structured report.

        Every line of every file is parsed and digest-checked — not just
        the indexed ones, so superseded duplicates and torn tails are
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
            torn_shards    files whose final line lacks a newline
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
        """Drop corrupt entries and rewrite damaged files in place.

        Each file (the log, or a legacy key-prefix shard) containing a
        torn line or a digest-failing live entry is rewritten whole and
        atomically (see :meth:`_rewrite_shard`) keeping only lines that
        parse *and* verify; healthy files are untouched.  Superseded
        duplicates survive repair — reclaiming them is :meth:`compact`'s
        job.  The in-memory index is rebuilt.  Returns
        ``{"repaired_shards": n, "dropped_lines": n, "cells": live-entry
        count after repair}``, where ``repaired_shards`` counts the files
        rewritten.
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
        """Fold every file's winning lines into the log.

        Keeps the winning line per key (the later file, then the later
        line, wins, as at open; a corrupt line never wins its key),
        rewrites the log with them atomically (see
        :meth:`_rewrite_shard`) and then removes every other shard file,
        so a store of legacy key-prefix shards leaves ``meta.json`` and
        the log.  This reclaims superseded duplicates and sheds torn or
        corrupt lines.  A crash mid-compaction leaves the old files, or
        the new log beside legacy files whose lines it wins.  A store
        that is the log alone with nothing to reclaim is not rewritten.
        Returns ``{"reclaimed_bytes": n, "dropped_lines": n, "cells":
        live-entry count}``.
        """
        shards = self._shard_files()
        before = sum(os.path.getsize(s) for s in shards)
        winners: Dict[str, bytes] = {}
        total = 0
        for shard in shards:
            for _, raw in self._lines(shard):
                total += 1
                entry = _entry(raw)
                if not _intact(entry):
                    continue
                if not raw.endswith(b"\n"):
                    raw += b"\n"
                winners[entry["key"]] = raw  # later line wins
        legacy = [shard for shard in shards if shard != self._log]
        if legacy or total != len(winners):
            self._rewrite_shard(self._log, list(winners.values()))
            for shard in legacy:
                os.remove(shard)
        self._reload()
        after = sum(os.path.getsize(s) for s in self._shard_files())
        return {
            "reclaimed_bytes": before - after,
            "dropped_lines": total - len(winners),
            "cells": len(self._index),
        }

    def _rewrite_shard(self, shard: str, lines: List[bytes]) -> None:
        """Atomically replace ``shard`` with ``lines``, or delete it if
        there are none: the temp file is fsynced before the rename and
        the directory after it, so a crash cannot leave a half-written
        replacement and the rename is durable when this returns."""
        if lines:
            _replace(shard, b"".join(lines))
        elif os.path.exists(shard):
            os.remove(shard)

    def _reload(self) -> None:
        """Build the index from disk: at open, and after a maintenance
        rewrite."""
        #: key -> (file path, byte offset, byte length); later lines win.
        self._index: Dict[str, Tuple[str, int, int]] = {}
        #: file -> the byte offset up to which its lines are indexed.
        self._ends: Dict[str, int] = {}
        #: files whose last line lacked its trailing newline when this
        #: handle last read them (a torn append), for verify and stats.
        self._torn_shards: set = set()
        for shard in self._shard_files():
            self._scan(shard)

    # ----------------------------------------------------------------- #
    # Introspection
    # ----------------------------------------------------------------- #

    def stats(self) -> Dict:
        """Inspectable on-disk facts (``repro store stats``): file
        count (``shards``: the log and any legacy key-prefix shards),
        indexed cells, byte totals, and schema versions — without anyone
        having to read JSONL by hand.

        ``bytes`` is the payload of those files (meta.json excluded);
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
