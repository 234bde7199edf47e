"""Shared fixtures and hypothesis profiles."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.sim.network import AdHocNetwork
from repro.sim.random_networks import sample_configs
from repro.strategies.minim import MinimStrategy
from repro.topology.builder import build_digraph
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig

# Hypothesis: property tests run whole simulations per example, so cap
# example counts modestly and disable deadlines (REPRO_HYPOTHESIS_EXAMPLES
# scales up for a deeper run).
_EXAMPLES = int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "25"))
settings.register_profile(
    "repro",
    max_examples=_EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def make_random_graph(
    seed: int,
    n: int = 20,
    *,
    min_range: float = 20.5,
    max_range: float = 30.5,
) -> AdHocDigraph:
    """A random paper-style digraph (positions on the 100x100 square)."""
    rng = np.random.default_rng(seed)
    return build_digraph(sample_configs(n, rng, min_range=min_range, max_range=max_range))


def make_colored_network(seed: int, n: int = 20, **kwargs) -> AdHocNetwork:
    """A network built by sequential Minim joins (valid assignment)."""
    rng = np.random.default_rng(seed)
    net = AdHocNetwork(MinimStrategy(), validate=True)
    for cfg in sample_configs(n, rng, **kwargs):
        net.join(cfg)
    return net


@pytest.fixture
def small_network() -> AdHocNetwork:
    """A 15-node Minim-joined network with a valid assignment."""
    return make_colored_network(seed=42, n=15)


@pytest.fixture
def line_graph() -> AdHocDigraph:
    """Five nodes on a line, ranges covering only adjacent nodes."""
    return build_digraph(
        NodeConfig(i, 10.0 * i, 0.0, tx_range=12.0) for i in range(1, 6)
    )


@pytest.fixture(params=["dir", "file"])
def store_path(request, tmp_path):
    """A results-store locator in each form the path rule accepts.

    ``dir`` is a suffix-less path that resolves to ``DIR/store.sqlite``;
    ``file`` names the database file itself. Stores reopened from their
    locator (pool children, workers) must land on the same file either way.
    """
    return tmp_path / ("store" if request.param == "dir" else "store.sqlite")
