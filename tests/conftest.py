"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.graphs import (
    clique,
    erdos_renyi,
    hypercube,
    lollipop,
    path,
    random_connected,
    random_regular,
    random_tree,
    ring,
    star,
    torus,
)

# Project-wide hypothesis profile: simulations are slow-ish per example, so
# keep example counts modest and disable the wall-clock deadline.
settings.register_profile(
    "repro",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


def pytest_configure(config):
    # A batch-engine fallback must never let a test pass silently: the
    # executor's fallback RuntimeWarning fails whichever test triggers
    # it (tests that mean to trigger it catch it with pytest.warns).
    config.addinivalue_line(
        "filterwarnings", "error:batch engine fallback:RuntimeWarning"
    )


@pytest.fixture
def rc8():
    """A view-distinguishable random connected graph on 8 nodes."""
    return random_connected(8, seed=5)


@pytest.fixture
def rc10():
    """A view-distinguishable random connected graph on 10 nodes."""
    return random_connected(10, seed=3)


@pytest.fixture
def ring9():
    """Canonical symmetric ring on 9 nodes."""
    return ring(9)


#: Small zoo of named graphs reused by parametrised structure tests.
GRAPH_ZOO = {
    "ring6": lambda: ring(6),
    "ring9_scrambled": lambda: ring(9, seed=4),
    "path5": lambda: path(5),
    "clique5": lambda: clique(5),
    "star6": lambda: star(6),
    "hypercube3": lambda: hypercube(3),
    "torus3x3": lambda: torus(3, 3),
    "tree8": lambda: random_tree(8, seed=2),
    "regular3_8": lambda: random_regular(8, 3, seed=1),
    "er10": lambda: erdos_renyi(10, 0.4, seed=6),
    "lollipop": lambda: lollipop(4, 3),
    "rc9": lambda: random_connected(9, seed=7),
}


@pytest.fixture(params=sorted(GRAPH_ZOO))
def zoo_graph(request):
    """Parametrised fixture iterating the whole graph zoo."""
    return GRAPH_ZOO[request.param]()
