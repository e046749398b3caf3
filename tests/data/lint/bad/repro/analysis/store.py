"""Fixture: non-canonical JSON writes in a canonical-bytes module."""
import json


def save(config, fh):
    json.dump(config, fh, indent=2)  # missing sort_keys=True


_ENCODER = json.JSONEncoder(separators=(",", ":"))  # missing sort_keys=True
