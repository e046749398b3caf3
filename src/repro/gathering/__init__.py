"""Gathering substrates: oracle-charged prior work."""

from .oracle import (
    canonical_gather_node,
    hirose_gathering_rounds,
    strong_gathering_rounds,
    weak_gathering_rounds,
)

__all__ = [
    "canonical_gather_node",
    "weak_gathering_rounds",
    "hirose_gathering_rounds",
    "strong_gathering_rounds",
]
