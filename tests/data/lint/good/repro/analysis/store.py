"""Fixture: a cell_key that hashes canonical JSON, like the real one."""
import hashlib
import json

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def records_sha(records):
    return hashlib.sha256(_CANONICAL.encode(records).encode("utf-8")).hexdigest()


def cell_key(kind, serial, graph, adversary, f, seed, schema_version=1, **axes):
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
    payload = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
