"""Fixture: a non-canonical JSON write in a canonical-bytes module."""
import json


def save(config, fh):
    json.dump(config, fh, indent=2)  # missing sort_keys=True
