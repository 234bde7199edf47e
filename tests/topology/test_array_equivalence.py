"""Conflict-core equivalence: array and sparse against the dense oracle.

The acceptance bar for every core rewrite (the array core's flat
adjacency/C2 blocks, the sparse core's CSR rows and witness dicts): on
randomized event traces both incremental cores must produce adjacency
and conflict sets identical to the dense oracle's (which re-derives
``A | Aᵀ | (A·Aᵀ > 0)`` per mutation) and snapshots byte-identical to
each other; their CA2 witness counters must equal ``A·Aᵀ`` exactly.
The slot-indexed query surface (``v1_slots``, ``conflict_masks``) must
agree with the id-level queries it replaces, and the sparse core's
round batching (:meth:`AdHocDigraph.apply_round`) must land on exactly
the state sequential application produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent
from repro.geometry.grid_index import SlotGridIndex
from repro.geometry.obstacles import RectObstacle
from repro.topology.conflicts import conflict_matrix
from repro.topology.digraph import AdHocDigraph, default_core
from repro.topology.node import NodeConfig
from repro.topology.propagation import ObstructedPropagation


def _random_trace(graphs, seed, steps, check, area=100.0, first_id=1, alive=None):
    rng = np.random.default_rng(seed)
    alive = list(alive) if alive is not None else []
    next_id = first_id
    for _ in range(steps):
        op = int(rng.integers(0, 5))
        if op in (0, 1) or not alive:
            cfg = NodeConfig(
                next_id,
                float(rng.uniform(0, area)),
                float(rng.uniform(0, area)),
                float(rng.uniform(5, 40)),
            )
            for g in graphs:
                g.add_node(cfg)
            alive.append(next_id)
            next_id += 1
        elif op == 2 and len(alive) > 1:
            v = alive.pop(int(rng.integers(0, len(alive))))
            for g in graphs:
                g.remove_node(v)
        elif op == 3:
            v = alive[int(rng.integers(0, len(alive)))]
            x, y = float(rng.uniform(0, area)), float(rng.uniform(0, area))
            for g in graphs:
                g.move_node(v, x, y)
        else:
            v = alive[int(rng.integers(0, len(alive)))]
            r = float(rng.uniform(5, 40)) * (6.0 if rng.random() < 0.1 else 1.0)
            for g in graphs:
                g.set_range(v, r)
        check(graphs, alive)


def _assert_cores_agree(graphs, alive):
    reference = graphs[0]
    ids_r, adj_r = reference.adjacency()
    oracle = conflict_matrix(adj_r)
    for g in graphs:
        ids_g, adj_g = g.adjacency()
        assert ids_g == ids_r
        assert (adj_g == adj_r).all()
        assert (g.conflict_adjacency()[1] == oracle).all()
        for v in alive:
            assert g.conflict_neighbor_ids(v) == reference.conflict_neighbor_ids(v)


def _assert_snapshots_identical(graphs, alive):
    _assert_cores_agree(graphs, alive)
    # every incremental core's snapshot must agree byte-for-byte (the
    # oracle legitimately differs: it records no counters or grid cell)
    reference = None
    for g in graphs:
        if g.core == "dense":
            continue
        if reference is None:
            reference = g.snapshot()
        else:
            assert g.snapshot() == reference


class TestRandomizedArrayEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_free_space_traces_identical(self, seed):
        graphs = [AdHocDigraph(core=c) for c in ("dense", "array", "sparse")]
        assert [g.core for g in graphs] == ["dense", "array", "sparse"]
        _random_trace(graphs, seed, steps=70, check=_assert_snapshots_identical)

    @pytest.mark.parametrize("seed", range(2))
    def test_obstructed_propagation_identical(self, seed):
        prop = ObstructedPropagation((RectObstacle(30.0, 30.0, 60.0, 40.0),))
        graphs = [AdHocDigraph(prop, core=c) for c in ("dense", "array", "sparse")]
        _random_trace(graphs, seed, steps=45, check=_assert_snapshots_identical)

    @pytest.mark.parametrize("seed", range(2))
    def test_sparse_area_engages_grid_candidates(self, seed):
        # a huge area with short ranges spreads nodes over many cells,
        # pushing the array core past its selectivity gate so the
        # candidate-gather path itself is equivalence-checked
        rng = np.random.default_rng(seed)
        graphs = [AdHocDigraph(core=c) for c in ("dense", "array", "sparse")]
        for node_id in range(1, 400):
            cfg = NodeConfig(
                node_id,
                float(rng.uniform(0, 2000)),
                float(rng.uniform(0, 2000)),
                float(rng.uniform(20, 40)),
            )
            for g in graphs:
                g.add_node(cfg)
        array = graphs[1]
        assert isinstance(array.grid_index, SlotGridIndex)
        assert array.grid_index.cell_count > 32  # gate open: gathers engage
        _random_trace(
            graphs,
            seed,
            steps=30,
            check=_assert_snapshots_identical,
            area=2000.0,
            first_id=400,
            alive=range(1, 400),
        )

    def test_copy_preserves_array_core(self):
        g = AdHocDigraph(core="array")
        rng = np.random.default_rng(3)
        for i in range(1, 30):
            g.add_node(
                NodeConfig(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 25.0)
            )
        clone = g.copy()
        assert clone.core == "array"
        clone.remove_node(2)
        clone.move_node(7, 0.0, 0.0)
        assert g.snapshot() != clone.snapshot()  # copies diverge independently
        for graph in (g, clone):
            _, adj = graph.adjacency()
            assert (graph.conflict_adjacency()[1] == conflict_matrix(adj)).all()


class TestSlotQuerySurface:
    @pytest.fixture()
    def graph(self):
        g = AdHocDigraph(core="array")
        rng = np.random.default_rng(11)
        for i in range(1, 40):
            g.add_node(
                NodeConfig(
                    i,
                    float(rng.uniform(0, 100)),
                    float(rng.uniform(0, 100)),
                    float(rng.uniform(10, 35)),
                )
            )
        return g

    def test_slot_ids_and_slot_of_are_inverse(self, graph):
        ids = graph.slot_ids()
        assert not ids.flags.writeable
        for slot, node_id in enumerate(ids.tolist()):
            assert graph.slot_of(node_id) == slot

    def test_out_in_slots_match_id_queries(self, graph):
        ids = graph.slot_ids()
        for node_id in graph.node_ids():
            s = graph.slot_of(node_id)
            assert sorted(ids[graph.out_slots(s)].tolist()) == graph.out_neighbors(node_id)
            assert sorted(ids[graph.in_slots(s)].tolist()) == graph.in_neighbors(node_id)

    def test_v1_slots_is_closed_in_neighborhood(self, graph):
        for node_id in graph.node_ids():
            s = graph.slot_of(node_id)
            expected = sorted(set(graph.in_slots(s).tolist()) | {s})
            assert graph.v1_slots(s).tolist() == expected

    def test_conflict_masks_match_conflict_neighbor_ids(self, graph):
        ids = graph.slot_ids()
        slots = np.arange(len(ids), dtype=np.intp)
        rows = graph.conflict_masks(slots)
        assert rows.shape == (len(ids), len(ids))
        assert not rows.diagonal().any()
        for s in slots.tolist():
            got = set(ids[rows[s]].tolist())
            assert got == graph.conflict_neighbor_ids(int(ids[s]))


class TestSparseCoreEquivalence:
    def test_copy_preserves_sparse_core(self):
        g = AdHocDigraph(core="sparse")
        rng = np.random.default_rng(7)
        for i in range(1, 30):
            g.add_node(
                NodeConfig(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100)), 25.0)
            )
        clone = g.copy()
        assert clone.core == "sparse"
        clone.remove_node(4)
        clone.move_node(9, 0.0, 0.0)
        assert g.snapshot() != clone.snapshot()  # copies diverge independently
        witness = AdHocDigraph(core="dense")
        for node_id, x, y, r in clone.snapshot()["nodes"]:
            witness.add_node(NodeConfig(node_id, x, y, r))
        _assert_cores_agree([witness, clone], clone.node_ids())

    @pytest.mark.parametrize(
        ("src", "dst"),
        [
            ("array", "sparse"),
            ("sparse", "array"),
            ("sparse", "dense"),
            ("dense", "sparse"),
            ("dense", "array"),
        ],
    )
    def test_cross_core_snapshot_restore(self, src, dst):
        origin = AdHocDigraph(core=src)
        _random_trace([origin], seed=13, steps=50, check=lambda *_: None)
        snap = origin.snapshot()
        restored = AdHocDigraph.restore(snap, core=dst)
        assert restored.core == dst
        if "dense" not in (src, dst):
            assert restored.snapshot() == snap  # round-trip is byte-identical
        _assert_cores_agree([origin, restored], origin.node_ids())
        # and the restored graph *continues* identically under churn
        _random_trace(
            [origin, restored],
            seed=17,
            steps=25,
            check=_assert_snapshots_identical,
            first_id=1000,
            alive=origin.node_ids(),
        )

    def test_auto_promotion_matches_pinned_cores(self, monkeypatch):
        import repro.topology.digraph as digraph_mod

        monkeypatch.delenv("REPRO_CORE", raising=False)
        monkeypatch.setattr(digraph_mod, "_SPARSE_AUTO_MIN", 10)
        graphs = [
            AdHocDigraph(core="dense"),
            AdHocDigraph(),  # REPRO_CORE unset: auto-promotion armed
            AdHocDigraph(core="array"),
        ]
        assert graphs[1].core == "array"
        _random_trace(graphs, seed=5, steps=80, check=_assert_snapshots_identical)
        assert graphs[1].core == "sparse"  # crossed the threshold mid-trace
        assert graphs[2].core == "array"  # an explicit pin never promotes


class TestSparseRoundBatching:
    @pytest.mark.parametrize("seed", range(3))
    def test_apply_round_matches_sequential(self, seed):
        rng = np.random.default_rng(seed)
        batched = AdHocDigraph(core="sparse")
        sequential = AdHocDigraph(core="sparse")
        witness = AdHocDigraph(core="array")
        alive: list[int] = []
        next_id = 1
        for _ in range(8):
            round_events = []
            for _ in range(int(rng.integers(5, 15))):
                op = int(rng.integers(0, 6))
                if op in (0, 1) or not alive:
                    cfg = NodeConfig(
                        next_id,
                        float(rng.uniform(0, 100)),
                        float(rng.uniform(0, 100)),
                        float(rng.uniform(5, 40)),
                    )
                    round_events.append(JoinEvent(cfg))
                    alive.append(next_id)
                    next_id += 1
                elif op == 2 and len(alive) > 1:
                    v = alive.pop(int(rng.integers(0, len(alive))))
                    round_events.append(LeaveEvent(v))
                elif op in (3, 4):
                    v = alive[int(rng.integers(0, len(alive)))]
                    x, y = float(rng.uniform(0, 100)), float(rng.uniform(0, 100))
                    round_events.append(MoveEvent(v, x, y))
                else:
                    v = alive[int(rng.integers(0, len(alive)))]
                    round_events.append(PowerChangeEvent(v, float(rng.uniform(5, 40))))
            got = batched.apply_round(round_events)
            want = [sequential.apply_event(ev) for ev in round_events]
            for ev in round_events:
                witness.apply_event(ev)
            assert got == want  # per-event deltas, byte-for-byte
            assert batched.snapshot() == sequential.snapshot() == witness.snapshot()

    def test_non_sparse_cores_fall_back_to_sequential(self):
        g = AdHocDigraph(core="array")
        events = [
            JoinEvent(NodeConfig(1, 10.0, 10.0, 30.0)),
            JoinEvent(NodeConfig(2, 20.0, 10.0, 30.0)),
            MoveEvent(1, 15.0, 12.0),
        ]
        deltas = g.apply_round(events)
        assert [d.kind for d in deltas] == ["join", "join", "move"]
        assert [d.version for d in deltas] == [1, 2, 3]


def _witness_block(g: AdHocDigraph) -> np.ndarray:
    """The core's raw CA2 counters as an (n, n) block in slot order."""
    n = len(g)
    if g.core == "array":
        return g._core.c2[:n, :n].astype(np.int64)
    block = np.zeros((n, n), dtype=np.int64)
    for u, entries in enumerate(g._core.c2s):
        for v, count in entries.items():
            block[u, v] = count
    return block


def _assert_witnesses_exact(graphs, alive):
    """C2[u, v] == |out(u) ∩ out(v)|, derived independently as A·Aᵀ."""
    for g in graphs:
        n = len(g)
        a = np.zeros((n, n), dtype=np.int64)
        for src, dst in g.edges():
            a[g.slot_of(src), g.slot_of(dst)] = 1
        want = a @ a.T
        np.fill_diagonal(want, 0)
        np.testing.assert_array_equal(_witness_block(g), want)


class TestWitnessCounters:
    """Both incremental cores' CA2 counters equal ``A·Aᵀ`` (zero diagonal).

    An independent derivation of the counters from the edge list, after
    every event of randomized churn, including under a propagation model
    with no native block kernel (the ``block_masks`` fallback loop).
    """

    @pytest.mark.parametrize("seed", range(3))
    def test_free_space_traces_identical(self, seed):
        graphs = [AdHocDigraph(core="array"), AdHocDigraph(core="sparse")]
        _random_trace(graphs, seed, steps=60, check=_assert_witnesses_exact)

    def test_obstructed_propagation_identical(self):
        prop = ObstructedPropagation((RectObstacle(30.0, 30.0, 60.0, 40.0),))
        graphs = [AdHocDigraph(prop, core="array"), AdHocDigraph(prop, core="sparse")]
        _random_trace(graphs, seed=9, steps=40, check=_assert_witnesses_exact)

    def test_auto_promotion_converts_the_counters_exactly(self, monkeypatch):
        # the sparse core built from the array core's C2 block must carry
        # exact witness dicts from the first post-promotion event on
        import repro.topology.digraph as digraph_mod

        monkeypatch.delenv("REPRO_CORE", raising=False)
        monkeypatch.setattr(digraph_mod, "_SPARSE_AUTO_MIN", 10)
        g = AdHocDigraph()
        # a crowded area, so pairs share several receivers at promotion
        _random_trace([g], seed=21, steps=70, check=_assert_witnesses_exact, area=40.0)
        assert g.core == "sparse"

    @pytest.mark.parametrize("core", ["array", "sparse"])
    def test_restored_counters_stay_exact_under_churn(self, core):
        # snapshots carry the counters; a restore (and a fork of it) must
        # keep them equal to A·Aᵀ as churn continues on both
        origin = AdHocDigraph(core=core)
        _random_trace([origin], seed=3, steps=40, check=lambda *_: None)
        restored = AdHocDigraph.restore(origin.snapshot(), core=core)
        graphs = [restored, restored.fork()]
        _assert_witnesses_exact(graphs, origin.node_ids())
        _random_trace(
            graphs,
            seed=4,
            steps=30,
            check=_assert_witnesses_exact,
            first_id=1000,
            alive=origin.node_ids(),
        )

    def test_bulk_join_counters_are_exact(self):
        rng = np.random.default_rng(8)
        g = AdHocDigraph(core="sparse")
        xs, ys = rng.uniform(0, 120, size=(2, 80))
        g.bulk_join(
            NodeConfig(i + 1, float(x), float(y), float(rng.uniform(5, 40)))
            for i, (x, y) in enumerate(zip(xs, ys))
        )
        _assert_witnesses_exact([g], g.node_ids())


class TestBulkJoin:
    def _configs(self, n, seed, area=300.0):
        rng = np.random.default_rng(seed)
        return [
            NodeConfig(
                i + 1,
                float(rng.uniform(0, area)),
                float(rng.uniform(0, area)),
                float(rng.uniform(5, 40)),
            )
            for i in range(n)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_bulk_join_matches_sequential(self, seed):
        configs = self._configs(120, seed)
        bulk = AdHocDigraph(core="sparse")
        sequential = AdHocDigraph(core="sparse")
        deltas = bulk.bulk_join(configs)
        for cfg in configs:
            sequential.add_node(cfg)
        assert [(d.kind, d.node_id, d.version) for d in deltas] == [
            ("join", cfg.node_id, v + 1) for v, cfg in enumerate(configs)
        ]
        assert bulk.snapshot() == sequential.snapshot()

    def test_apply_round_routes_all_join_rounds(self):
        configs = self._configs(40, seed=4)
        routed = AdHocDigraph(core="sparse")
        sequential = AdHocDigraph(core="sparse")
        got = routed.apply_round([JoinEvent(cfg) for cfg in configs])
        want = [sequential.apply_event(JoinEvent(cfg)) for cfg in configs]
        assert got == want
        assert routed.snapshot() == sequential.snapshot()

    def test_duplicate_join_fails_before_any_mutation(self):
        from repro.errors import DuplicateNodeError

        g = AdHocDigraph(core="sparse")
        configs = self._configs(10, seed=2)
        snap = None
        g.bulk_join(configs)
        snap = g.snapshot()
        dupe = [NodeConfig(100, 1.0, 1.0, 10.0), configs[3]]
        with pytest.raises(DuplicateNodeError):
            g.bulk_join(dupe)
        assert g.snapshot() == snap  # pre-validation left no half-commit

    def test_non_sparse_core_falls_back_to_sequential(self):
        configs = self._configs(12, seed=6)
        g = AdHocDigraph(core="array")
        deltas = g.bulk_join(configs)
        assert [d.version for d in deltas] == list(range(1, 13))
        witness = AdHocDigraph(core="array")
        for cfg in configs:
            witness.add_node(cfg)
        assert g.snapshot() == witness.snapshot()


class TestConflictSlotLists:
    @pytest.fixture()
    def graph(self):
        g = AdHocDigraph(core="sparse")
        rng = np.random.default_rng(21)
        for i in range(1, 80):
            g.add_node(
                NodeConfig(
                    i,
                    float(rng.uniform(0, 200)),
                    float(rng.uniform(0, 200)),
                    float(rng.uniform(10, 45)),
                )
            )
        return g

    def test_matches_per_slot_query(self, graph):
        slots = np.arange(len(graph.slot_ids()), dtype=np.intp)
        rows = graph.conflict_slot_lists(slots)
        assert len(rows) == len(slots)
        for s, row in zip(slots.tolist(), rows):
            np.testing.assert_array_equal(row, graph.conflict_slots(int(s)))

    def test_rows_are_frozen_and_cached(self, graph):
        slots = np.asarray([0, 3, 0, 7], dtype=np.intp)
        first = graph.conflict_slot_lists(slots)
        assert not first[0].flags.writeable
        assert first[0] is first[2]  # duplicate request, one derivation
        again = graph.conflict_slot_lists(slots)
        assert all(a is b for a, b in zip(first, again))  # version cache hit

    def test_mutation_invalidates_cache(self, graph):
        slots = np.asarray([0, 1, 2], dtype=np.intp)
        stale = graph.conflict_slot_lists(slots)
        graph.move_node(3, 0.0, 0.0)
        fresh = graph.conflict_slot_lists(slots)
        for s, row in zip(slots.tolist(), fresh):
            np.testing.assert_array_equal(row, graph.conflict_slots(int(s)))
        assert not any(a is b for a, b in zip(stale, fresh))

    def test_empty_and_non_sparse_fallback(self, graph):
        assert graph.conflict_slot_lists(np.asarray([], dtype=np.intp)) == []
        dense = AdHocDigraph(core="array")
        dense.add_node(NodeConfig(1, 10.0, 10.0, 30.0))
        dense.add_node(NodeConfig(2, 20.0, 10.0, 30.0))
        (row,) = dense.conflict_slot_lists(np.asarray([0], dtype=np.intp))
        np.testing.assert_array_equal(row, dense.conflict_slots(0))


class TestCoreSelection:
    """``core=`` / ``REPRO_CORE``: the single, validated core selector."""

    @pytest.mark.parametrize("core", ["array", "sparse", "dense"])
    def test_each_env_value_selects_and_pins_its_core(self, core, monkeypatch):
        import repro.topology.digraph as digraph_mod

        monkeypatch.setenv("REPRO_CORE", core)
        assert AdHocDigraph().core == core
        assert default_core() == core
        assert default_core(digraph_mod._SPARSE_AUTO_MIN) == core  # pinned

    def test_unset_means_array_with_auto_promotion(self, monkeypatch):
        import repro.topology.digraph as digraph_mod

        monkeypatch.delenv("REPRO_CORE", raising=False)
        # the retired knobs are ignored rather than half-honoured
        for knob in ("REPRO_DENSE", "REPRO_ARRAY", "REPRO_SPARSE"):
            monkeypatch.setenv(knob, "false")
        threshold = digraph_mod._SPARSE_AUTO_MIN
        assert default_core() == "array"
        assert default_core(threshold - 1) == "array"
        assert default_core(threshold) == "sparse"
        monkeypatch.setenv("REPRO_CORE", "")  # empty counts as unset
        assert default_core(threshold) == "sparse"
        monkeypatch.setattr(digraph_mod, "_SPARSE_AUTO_MIN", 10)
        g = AdHocDigraph()
        for i in range(1, 10):
            g.add_node(NodeConfig(i, float(i), 0.0, 5.0))
        assert g.core == "array"
        g.add_node(NodeConfig(10, 10.0, 0.0, 5.0))
        assert g.core == "sparse"

    def test_explicit_array_pins_without_promotion(self, monkeypatch):
        import repro.topology.digraph as digraph_mod

        monkeypatch.setattr(digraph_mod, "_SPARSE_AUTO_MIN", 10)
        monkeypatch.delenv("REPRO_CORE", raising=False)
        pinned = AdHocDigraph(core="array")
        monkeypatch.setenv("REPRO_CORE", "array")
        env_pinned = AdHocDigraph()
        for i in range(1, 20):
            for g in (pinned, env_pinned):
                g.add_node(NodeConfig(i, float(i), 0.0, 5.0))
        assert pinned.core == env_pinned.core == "array"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "sparse")
        assert AdHocDigraph(core="dense").core == "dense"
        assert AdHocDigraph(core="array").core == "array"

    def test_unknown_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE", "false")
        with pytest.raises(ConfigurationError, match="REPRO_CORE") as err:
            AdHocDigraph()
        for choice in ("array", "sparse", "dense"):
            assert choice in str(err.value)
        with pytest.raises(ConfigurationError, match="REPRO_CORE"):
            default_core()
        monkeypatch.delenv("REPRO_CORE")
        with pytest.raises(ConfigurationError, match="core"):
            AdHocDigraph(core="dict")

    @pytest.mark.parametrize("value", ["false", "0", "dict", "grid", "sparse-scalar"])
    def test_retired_spellings_are_rejected_everywhere(self, value, monkeypatch):
        # the old boolean knobs and the deleted cores' names must fail
        # loudly rather than silently select a core
        monkeypatch.delenv("REPRO_CORE", raising=False)
        snap = AdHocDigraph(core="array").snapshot()
        with pytest.raises(ConfigurationError, match="core"):
            AdHocDigraph(core=value)
        with pytest.raises(ConfigurationError, match="core"):
            AdHocDigraph.restore(snap, core=value)
        monkeypatch.setenv("REPRO_CORE", value)
        with pytest.raises(ConfigurationError, match="REPRO_CORE"):
            AdHocDigraph.restore(snap)
        with pytest.raises(ConfigurationError, match="REPRO_CORE"):
            default_core(10)
