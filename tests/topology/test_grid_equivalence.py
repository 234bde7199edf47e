"""Grid/incremental conflict maintenance vs the dense escape hatch.

The acceptance bar for the fast path: on randomized event traces, the
grid-backed incremental digraph must produce *identical* adjacency and
conflict sets to the dense oracle (``core="dense"``, which re-derives
the canonical dense conflict matrix per event), and both must agree with
the pure :func:`conflict_matrix` oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.obstacles import RectObstacle
from repro.topology.conflicts import conflict_matrix
from repro.topology.digraph import AdHocDigraph
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation


def _random_trace(graphs: list[AdHocDigraph], seed: int, steps: int, check) -> None:
    """Drive identical random events through ``graphs``; ``check`` after each."""
    rng = np.random.default_rng(seed)
    alive: list[int] = []
    next_id = 1
    for _ in range(steps):
        op = int(rng.integers(0, 5))
        if op in (0, 1) or not alive:  # join (weighted up to keep graphs non-trivial)
            cfg = NodeConfig(
                next_id,
                float(rng.uniform(0, 100)),
                float(rng.uniform(0, 100)),
                float(rng.uniform(5, 40)),
            )
            for g in graphs:
                g.add_node(cfg)
            alive.append(next_id)
            next_id += 1
        elif op == 2 and len(alive) > 1:  # leave
            v = alive.pop(int(rng.integers(0, len(alive))))
            for g in graphs:
                g.remove_node(v)
        elif op == 3:  # move
            v = alive[int(rng.integers(0, len(alive)))]
            x, y = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
            for g in graphs:
                g.move_node(v, x, y)
        else:  # power change; occasionally a large raise (exercises regrid)
            v = alive[int(rng.integers(0, len(alive)))]
            r = float(rng.uniform(5, 40)) * (6.0 if rng.random() < 0.1 else 1.0)
            for g in graphs:
                g.set_range(v, r)
        check(graphs, alive)


def _assert_equivalent(graphs: list[AdHocDigraph], alive: list[int]) -> None:
    fast, dense = graphs
    ids_f, adj_f = fast.adjacency()
    ids_d, adj_d = dense.adjacency()
    assert ids_f == ids_d
    assert (adj_f == adj_d).all()
    oracle = conflict_matrix(adj_f)
    assert (fast.conflict_adjacency()[1] == oracle).all()
    assert (dense.conflict_adjacency()[1] == oracle).all()
    for v in alive:
        assert fast.conflict_neighbor_ids(v) == dense.conflict_neighbor_ids(v)
        assert fast.in_neighbors(v) == dense.in_neighbors(v)
        assert fast.out_neighbors(v) == dense.out_neighbors(v)


class TestRandomizedTraceEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_free_space_conflict_sets_identical(self, seed):
        graphs = [AdHocDigraph(), AdHocDigraph(core="dense")]
        assert graphs[0].core != "dense" and graphs[1].core == "dense"
        _random_trace(graphs, seed, steps=60, check=_assert_equivalent)

    @pytest.mark.parametrize("seed", range(2))
    def test_obstructed_propagation_equivalent(self, seed):
        obstacles = (RectObstacle(30.0, 30.0, 60.0, 40.0),)
        prop = ObstructedPropagation(obstacles)
        graphs = [AdHocDigraph(prop), AdHocDigraph(prop, core="dense")]
        _random_trace(graphs, seed, steps=40, check=_assert_equivalent)

    def test_grid_engages_on_fast_path(self):
        g = AdHocDigraph()
        g.add_node(NodeConfig(1, 10.0, 10.0, 25.0))
        assert g.grid_index is not None
        assert len(g.grid_index) == 1  # the sole node's slot is indexed
        d = AdHocDigraph(core="dense")
        d.add_node(NodeConfig(1, 10.0, 10.0, 25.0))
        assert d.grid_index is None

    def test_regrid_on_large_power_raise(self):
        g = AdHocDigraph()
        for i in range(1, 10):
            g.add_node(NodeConfig(i, 10.0 * i, 5.0, 4.0))
        small_cell = g.grid_index.cell_size
        g.set_range(3, 80.0)  # > regrid factor x cell size
        assert g.grid_index.cell_size > small_cell
        assert g.out_neighbors(3) == [1, 2, 4, 5, 6, 7, 8, 9]
        ids, adj = g.adjacency()
        assert (g.conflict_adjacency()[1] == conflict_matrix(adj)).all()

    def test_copy_preserves_fast_path_state(self):
        g = AdHocDigraph()
        rng = np.random.default_rng(0)
        for i in range(1, 25):
            g.add_node(
                NodeConfig(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 25.0)
            )
        g2 = g.copy()
        g2.remove_node(1)
        g2.move_node(5, 0.0, 0.0)
        assert 1 in g and g.conflict_neighbor_ids(1) is not None
        for graph in (g, g2):
            ids, adj = graph.adjacency()
            assert (graph.conflict_adjacency()[1] == conflict_matrix(adj)).all()


class TestDenseEnvDefault:
    def test_repro_dense_env_flips_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "dense")
        assert AdHocDigraph().core == "dense"
        monkeypatch.delenv("REPRO_CORE")
        assert AdHocDigraph().core == "array"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "dense")
        assert AdHocDigraph(core="array").core == "array"
