"""Dynamic ad-hoc digraph with incremental reconfiguration updates.

``AdHocDigraph`` maintains the directed graph induced by node
configurations under a propagation model.  It is the single source of
truth for topology; strategies and simulators query it, never raw arrays.

The class is a facade over one *conflict core*
(:mod:`repro.topology.cores`), chosen by the ``core`` argument or the
``REPRO_CORE`` environment variable:

* ``"array"`` (default) — flat numpy adjacency and CA2 witness blocks
  with batched per-event deltas.  Unless pinned explicitly it
  auto-promotes to the sparse core once the population reaches
  ``_SPARSE_AUTO_MIN`` nodes, where the O(N²) blocks stop paying.
* ``"sparse"`` — CSR-style slot rows and per-slot witness dicts, O(N + E)
  memory, with multi-event round batching (:meth:`AdHocDigraph.apply_round`).
* ``"dense"`` — the oracle: full-scan edges and the conflict matrix
  re-derived as ``A | Aᵀ | (A·Aᵀ > 0)`` once per mutation.

All three answer every query and write every snapshot byte-identically.
The facade owns what is core-independent: node ids and the id↔slot maps,
positions and ranges in flat slot-indexed arrays (removal swap-deletes
the last slot into the vacated one, keeping the block contiguous), the
spatial grid and the edge-set computation, the topology version and the
delta journal, and the per-version query memos.  Each join, move or
power change computes the node's final sorted out/in slot sets once and
hands them to the core; the facade never asks which core it holds.

The grid fast path is only engaged when the propagation model declares
``disc_bounded = True`` (coverage is a subset of the transmission disc,
true for the free-space and obstructed models); other models fall back
to full scans while keeping the incremental conflict counters.  All
neighbour queries return id lists sorted ascending for determinism.
"""

from __future__ import annotations

import copy
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import (
    ConfigurationError,
    DuplicateNodeError,
    InvalidEventError,
    UnknownNodeError,
)
from repro.geometry.grid_index import SlotGridIndex
from repro.obs import metrics as _met
from repro.topology.cores import EMPTY_SLOTS, ArrayCore, ConflictCore, DenseOracle, SparseCore
from repro.topology.node import NodeConfig
from repro.topology.propagation import (
    FreeSpacePropagation,
    PropagationModel,
    block_masks,
    pairwise_masks,
)
from repro.types import NodeId

if TYPE_CHECKING:  # pragma: no cover - type-only; events imports topology.node
    from repro.events.base import Event

__all__ = ["AdHocDigraph", "TopologyDelta", "default_core"]

#: The conflict cores a graph can run, by ``core`` / ``REPRO_CORE`` name.
_CORE_CLASSES: dict[str, type] = {
    "array": ArrayCore,
    "sparse": SparseCore,
    "dense": DenseOracle,
}

_INITIAL_CAPACITY = 16
#: Memo key of the assembled conflict-adjacency pair (node ids are ints,
#: so a string key can never collide with a per-node conflict-set entry).
_CONFLICT_ADJ_KEY = "conflict_adjacency"
#: Rebuild the spatial grid when a range exceeds this multiple of the
#: cell size, so disc queries keep touching O(1) cells as power grows.
_REGRID_FACTOR = 4.0

#: Grid upkeep is deferred until this many nodes are live: below it the
#: selectivity gate falls back to full scans anyway, so per-event grid
#: upkeep would be pure overhead.
_GRID_LAZY_MIN = 256

#: Below this many occupied grid cells a disc query ring (~5×5 cells
#: with the guard) covers most of the population, so candidate gathering
#: cannot beat a vectorized full scan and the grid is skipped.
_MIN_SELECTIVE_CELLS = 32

#: Population at which a default (unpinned) array-core graph promotes
#: itself to the sparse core: past this size the (cap, cap) blocks cost
#: O(N²) memory and full-row C2 updates, while the sparse rows stay
#: O(N + E).  Well above every registered scenario (≤ a few hundred
#: nodes) and below the large-N bench.
_SPARSE_AUTO_MIN = 4096


def _resolve_core(core: str | None) -> tuple[str, bool]:
    """``(core name, auto-promotion armed)`` for a ``core`` argument.

    ``None`` reads ``REPRO_CORE``; unset (or empty) means the array core
    with auto-promotion, while any explicit name pins that core.
    """
    source = "core"
    if core is None:
        core = os.environ.get("REPRO_CORE", "")
        if not core:
            return "array", True
        source = "REPRO_CORE"
    if core not in _CORE_CLASSES:
        choices = ", ".join(repr(c) for c in _CORE_CLASSES)
        raise ConfigurationError(f"{source} must be one of {choices}, got {core!r}")
    return core, False


def default_core(n: int | None = None) -> str:
    """The conflict core a default-constructed graph would run.

    ``"array"``, ``"sparse"`` or ``"dense"``, resolved from
    ``REPRO_CORE`` exactly as :class:`AdHocDigraph` resolves it.  Pass
    the expected population ``n`` to account for auto-promotion: an
    unset ``REPRO_CORE`` hands off to sparse once
    ``n >= _SPARSE_AUTO_MIN``.  Execution provenance stamps this so
    results record which core produced them.
    """
    name, auto = _resolve_core(None)
    if auto and n is not None and n >= _SPARSE_AUTO_MIN:
        return "sparse"
    return name


def _count_grid_result(cand):
    """Fold one grid candidate query into the metrics registry.

    ``None`` is the grid's 3n/4-cutoff bailout ("not selective — scan
    everyone"); an array is a selective window whose size distribution
    the report surfaces.  Callers guard on ``_met.ENABLED``.
    """
    if cand is None:
        _met.REGISTRY.inc("core.grid.bailout")
    else:
        _met.REGISTRY.inc("core.grid.window")
        _met.REGISTRY.observe("core.grid.candidate_window", int(cand.size))
    return cand


@dataclass(frozen=True)
class TopologyDelta:
    """The strategy-independent record of one applied topology event.

    Produced by :meth:`AdHocDigraph.apply_event` *after* the mutation is
    committed, a delta carries everything a recoding strategy's event
    handler needs beyond the post-event graph itself: the event kind
    (power changes are classified increase/decrease here, where the old
    range is still known) and the pre-event conflict set of the node for
    power increases (the CP extension recodes exactly the nodes that
    *gained* a constraint).

    Because deltas capture only graph-derived state, one delta stream
    can be fanned out to any number of per-strategy assignment states —
    the topology mutation and conflict-delta computation run once, not
    once per strategy.
    """

    #: Event kind after classification:
    #: ``"join" | "leave" | "move" | "power_increase" | "power_decrease"``.
    kind: str
    #: The initiating node (joined / left / moved / changed power).
    node_id: NodeId
    #: Topology version after this event was applied.
    version: int
    #: The removed node's last configuration (``leave`` only).
    removed_config: NodeConfig | None = None
    #: Transmission range before the change (power events only).
    old_range: float | None = None
    #: CA1 ∪ CA2 conflict set of ``node_id`` *before* the event
    #: (power events only).
    old_conflicts: frozenset[NodeId] = field(default_factory=frozenset)


class AdHocDigraph:
    """The power-controlled ad-hoc network digraph (paper section 2).

    Edge rule: ``u -> v`` iff the propagation model says ``u``'s
    transmission covers ``v`` (free space: ``d(u, v) <= r_u``).

    Parameters
    ----------
    propagation:
        Propagation model; defaults to the paper's free-space disc.
    core:
        ``"array"``, ``"sparse"`` or ``"dense"``; see the module notes.
        ``None`` (default) reads ``REPRO_CORE``, and an unset variable
        selects the array core with auto-promotion to sparse at
        ``_SPARSE_AUTO_MIN`` nodes.  An explicit name — argument or
        variable — pins that core.  Any other value raises
        :class:`ConfigurationError`.  The choice is purely an
        execution-speed/memory knob: every query and snapshot is
        byte-identical across cores.
    grid_cell_size:
        Explicit spatial-grid cell size.  Default: sized from observed
        transmission ranges (a disc query then touches O(1) cells).
    """

    def __init__(
        self,
        propagation: PropagationModel | None = None,
        *,
        core: str | None = None,
        grid_cell_size: float | None = None,
    ) -> None:
        self._prop: PropagationModel = (
            propagation if propagation is not None else FreeSpacePropagation()
        )
        # Exactly free space (not a subclass): gates the inlined
        # distance kernel of the edge-set computation.
        self._fs = type(self._prop) is FreeSpacePropagation
        # Grid candidates are subsets of the population, which only
        # models evaluating each target independently may be given.
        self._elementwise = bool(getattr(self._prop, "elementwise", True))
        name, self._auto = _resolve_core(core)
        cap = _INITIAL_CAPACITY
        self._core: ConflictCore = _CORE_CLASSES[name](cap)
        self._pos = np.zeros((cap, 2), dtype=np.float64)
        self._range = np.zeros(cap, dtype=np.float64)
        self._ids: list[NodeId] = []  # index -> id, for the active block
        self._ida = np.zeros(cap, dtype=np.int64)  # slot-aligned ids (hot queries)
        self._index: dict[NodeId, int] = {}
        self._use_grid = self._core.spatial_index and bool(
            getattr(self._prop, "disc_bounded", False)
        )
        self._grid: SlotGridIndex | None = None
        self._grid_cell = grid_cell_size
        # The cell size the grid has — or, while its build is deferred
        # (below _GRID_LAZY_MIN nodes), *would* have — under the
        # first-insert / regrid-factor rules.  Maintained on every insert
        # and power raise so snapshots and the deferred build agree.
        self._cell_live: float | None = None
        # Cached upper bound on max(range); may be stale-high after a
        # removal or power decrease, which only widens candidate discs
        # (still a superset — results unchanged).
        self._max_range = 0.0
        self._version = 0
        # Per-version memo of derived conflict queries.  Multi-strategy
        # replay issues the same queries once per strategy between two
        # topology events; the memo makes repeats O(1).
        self._memo: dict = {}
        self._memo_version = -1
        # Per-slot conflict-row cache for conflict_slot_lists, keyed by
        # topology version like the id-based memo (slots and node ids
        # are both ints, so the two caches cannot share one dict).
        self._crow_cache: dict[int, np.ndarray] = {}
        self._crow_version = -1
        # Delta-snapshot bookkeeping: slot -> topology version of the
        # last mutation that rewrote the slot's occupant/configuration
        # (edges are derived from endpoint configs, so config-dirty
        # slots bound every edge change).  ``_delta_floor`` is the
        # earliest base version :meth:`delta_snapshot` can serve.
        self._touched: dict[int, int] = {}
        self._delta_floor = 0
        # Copy-on-write: a forked graph shares the grid until it mutates.
        self._grid_shared = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def propagation(self) -> PropagationModel:
        """The propagation model edges are computed under."""
        return self._prop

    @property
    def core(self) -> str:
        """The active core: ``"array"``, ``"sparse"`` or ``"dense"``.

        An auto-promoted graph reports ``"sparse"`` from the promotion
        event on.
        """
        return self._core.name

    @property
    def version(self) -> int:
        """The topology version (bumped once per applied mutation).

        The anchor of the delta-snapshot protocol: a
        :meth:`delta_snapshot` is taken *against* a base version and a
        delta :meth:`apply_delta` refuses to land on any other version,
        so chained checkpoints can never silently diverge.
        """
        return self._version

    @property
    def delta_floor(self) -> int:
        """Earliest version :meth:`delta_snapshot` can use as a base.

        ``0`` for a graph built by live mutation; the restored version
        for a graph rebuilt by :meth:`restore`, whose per-slot history
        starts there.
        """
        return self._delta_floor

    @property
    def grid_index(self) -> SlotGridIndex | None:
        """The slot-keyed spatial index backing the fast path (``None`` if unused).

        The build is deferred until the population is large enough for
        candidate queries to pay; accessing this property forces it so
        callers always observe a complete index.
        """
        if self._grid is None and self._use_grid and self._cell_live is not None and self._ids:
            self._build_grid(self._cell_live)
        return self._grid

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._index

    def node_ids(self) -> list[NodeId]:
        """All node ids, ascending."""
        return sorted(self._index)

    def config(self, node_id: NodeId) -> NodeConfig:
        """The current configuration of ``node_id``."""
        i = self._idx(node_id)
        return NodeConfig(
            node_id, float(self._pos[i, 0]), float(self._pos[i, 1]), float(self._range[i])
        )

    def configs(self) -> list[NodeConfig]:
        """All node configurations, ascending by id."""
        return [self.config(v) for v in self.node_ids()]

    def position_of(self, node_id: NodeId) -> tuple[float, float]:
        """The ``(x, y)`` position of ``node_id``."""
        i = self._idx(node_id)
        return (float(self._pos[i, 0]), float(self._pos[i, 1]))

    def range_of(self, node_id: NodeId) -> float:
        """The transmission range of ``node_id``."""
        return float(self._range[self._idx(node_id)])

    # ------------------------------------------------------------------
    # Edge queries
    # ------------------------------------------------------------------
    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        """Whether the directed edge ``src -> dst`` exists."""
        return self._core.has_edge(self._idx(src), self._idx(dst))

    def out_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Nodes within ``node_id``'s transmission range (sorted)."""
        return self._sorted_ids(self.out_slots(self._idx(node_id)))

    def in_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Nodes whose transmissions reach ``node_id`` (sorted)."""
        return self._sorted_ids(self.in_slots(self._idx(node_id)))

    def undirected_neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Union of in- and out-neighbors (sorted)."""
        i = self._idx(node_id)
        return self._sorted_ids(np.union1d(self.out_slots(i), self.in_slots(i)))

    def out_degree(self, node_id: NodeId) -> int:
        """Number of out-neighbors."""
        return int(self.out_slots(self._idx(node_id)).size)

    def in_degree(self, node_id: NodeId) -> int:
        """Number of in-neighbors."""
        return int(self.in_slots(self._idx(node_id)).size)

    def edges(self) -> Iterator[tuple[NodeId, NodeId]]:
        """Iterate all directed edges as ``(src, dst)`` id pairs.

        Row-major slot order with ascending columns (identical across
        cores).
        """
        src, dst = self._core.edge_pairs(len(self._ids))
        ids = self._ids
        for r, c in zip(src.tolist(), dst.tolist()):
            yield (ids[r], ids[c])

    def edge_count(self) -> int:
        """Total number of directed edges."""
        return int(self._core.edge_pairs(len(self._ids))[0].size)

    def adjacency(self) -> tuple[list[NodeId], np.ndarray]:
        """``(ids, A)`` where ``A[i, j]`` == edge ``ids[i] -> ids[j]``.

        ``ids`` is ascending; ``A`` is a copy safe to mutate.  This is the
        entry point for vectorized consumers (conflict-matrix builds,
        whole-network recoloring).  It is an O(N²) materialization by
        contract, meant for whole-network consumers, not per-event paths.
        """
        ids, perm = self._id_order()
        block = self._core.adjacency_block(len(self._ids))
        return ids, block[np.ix_(perm, perm)]

    def positions_and_ranges(self) -> tuple[list[NodeId], np.ndarray, np.ndarray]:
        """``(ids, positions, ranges)`` aligned arrays, ids ascending."""
        ids, perm = self._id_order()
        return ids, self._pos[perm].copy(), self._range[perm].copy()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_node(self, cfg: NodeConfig) -> None:
        """Join ``cfg`` to the network, creating its in/out edges."""
        if cfg.node_id in self._index:
            raise DuplicateNodeError(cfg.node_id)
        i = self._admit(cfg)
        n = len(self._ids)
        out, inn = self._edge_sets(i)
        self._core.join(i, n, out, inn)
        if self._auto and n >= _SPARSE_AUTO_MIN:
            # Pure re-representation: queries, snapshots and subsequent
            # events are byte-identical to either core.  The slot grid
            # carries over untouched.
            sparse = SparseCore()
            sparse.load(n, *self._core.edge_pairs(n), self._core.witness_triples(n))
            self._core = sparse
            self._auto = False
        self._stamp(i)
        if _met.ENABLED:
            _met.REGISTRY.inc("core.join.sequential")

    def bulk_join(self, configs: Iterable[NodeConfig]) -> list[TopologyDelta]:
        """Admit a whole join round as one mutation.

        Returns one ``join`` delta per config, with the same version
        numbers sequential :meth:`add_node` calls would assign, and
        leaves the graph in exactly the state they would (final
        adjacency depends only on the final configurations).  The sparse
        core commits the round in streaming passes with one grid-bucketed
        edge-set sweep; the other cores join sequentially, which keeps
        auto-promotion semantics.  :meth:`apply_round` routes all-join
        runs here; calling it directly is useful for flash-crowd
        initialization (a 10⁵-node network without 10⁵ candidate queries).
        """
        return self._core.bulk_join(self, list(configs))

    def remove_node(self, node_id: NodeId) -> NodeConfig:
        """Remove ``node_id`` and all incident edges; returns its config."""
        cfg = self.config(node_id)
        n = len(self._ids)
        i = self._index[node_id]
        self._core.remove(i, n)
        self._vacate_slot(i)
        self._version += 1
        if i != n - 1:
            # Swap-delete moved the last slot's occupant into i.
            self._touched[i] = self._version
        return cfg

    def move_node(self, node_id: NodeId, x: float, y: float) -> None:
        """Relocate ``node_id``; recomputes its out- and in-edges."""
        i = self._idx(node_id)
        self._relocate(i, x, y)
        out, inn = self._edge_sets(i)
        self._core.refresh(i, len(self._ids), out, inn)
        self._stamp(i)

    def set_range(self, node_id: NodeId, tx_range: float) -> None:
        """Change ``node_id``'s transmission range; recomputes out-edges.

        In-edges are unaffected: whether *others* reach this node depends
        only on their ranges.
        """
        if tx_range <= 0:
            raise ConfigurationError(f"tx_range must be positive, got {tx_range}")
        i = self._idx(node_id)
        self._range[i] = float(tx_range)
        if tx_range > self._max_range:
            self._max_range = float(tx_range)
        if (
            self._use_grid
            and self._grid_cell is None
            and self._cell_live is not None
            and tx_range > _REGRID_FACTOR * self._cell_live
        ):
            self._cell_live = float(tx_range)
            if self._grid is not None:
                self._build_grid(self._cell_live)
        self._core.set_out(i, len(self._ids), self._out_set(i))
        self._stamp(i)

    # ------------------------------------------------------------------
    # Event replay
    # ------------------------------------------------------------------
    def apply_event(self, event: Event) -> TopologyDelta:
        """Apply one reconfiguration event; return its conflict delta.

        The returned :class:`TopologyDelta` captures the pre-event state
        handlers need (old range and old conflict set for power changes,
        the removed configuration for leaves), so per-strategy consumers
        never re-derive topology work.  This is the single mutation
        entry point of the replay pipeline: the event loop applies each
        event exactly once here and fans the delta out to every
        strategy's assignment state.
        """
        from repro.events.base import JoinEvent, LeaveEvent, MoveEvent, PowerChangeEvent

        if isinstance(event, JoinEvent):
            self.add_node(event.config)
            return TopologyDelta("join", event.node_id, self._version)
        if isinstance(event, LeaveEvent):
            removed = self.remove_node(event.node_id)
            return TopologyDelta("leave", event.node_id, self._version, removed_config=removed)
        if isinstance(event, MoveEvent):
            self.move_node(event.node_id, event.x, event.y)
            return TopologyDelta("move", event.node_id, self._version)
        if isinstance(event, PowerChangeEvent):
            old_range = self.range_of(event.node_id)
            old_conflicts = frozenset(self.conflict_neighbor_ids(event.node_id))
            self.set_range(event.node_id, event.new_range)
            kind = "power_increase" if event.new_range > old_range else "power_decrease"
            return TopologyDelta(
                kind,
                event.node_id,
                self._version,
                old_range=old_range,
                old_conflicts=old_conflicts,
            )
        raise InvalidEventError(f"unknown event type {type(event).__name__}")

    def replay_events(self, events: Iterable[Event]) -> Iterator[TopologyDelta]:
        """Lazily apply ``events`` in order, yielding one delta each.

        The replayable conflict-delta stream: consumers iterate deltas
        while the graph advances underneath, so per-event derived state
        (conflict sets, the memo) is always for the just-applied event.
        """
        for event in events:
            yield self.apply_event(event)

    def apply_round(self, events: Iterable[Event]) -> list[TopologyDelta]:
        """Apply one churn round of events with multi-event batching.

        Returns one :class:`TopologyDelta` per event, with the same
        kinds, node ids and version numbers :meth:`apply_event` would
        produce, and leaves the graph in **exactly** the state
        sequential application would (the final topology depends only on
        each live node's final configuration, which batching preserves).
        The intermediate graph states between the round's events are
        *not* materialized — callers that must observe them (per-event
        strategy reactions with sequential semantics) should stay on
        :meth:`replay_events`.

        Only the sparse core batches (contiguous join/move runs become
        one geometry pass, one grid-bucketed edge-set sweep and one
        fused C2 reconciliation per touched receiver); the other cores
        apply the round sequentially — identical results either way.
        """
        return self._core.apply_round(self, list(events))

    def replay_rounds(self, rounds: Iterable[Iterable[Event]]) -> Iterator[list[TopologyDelta]]:
        """Lazily apply round-structured events via :meth:`apply_round`.

        Yields the per-round delta lists; the graph advances one round
        at a time, so derived queries between yields observe the
        just-committed round (round-commit semantics).
        """
        for round_events in rounds:
            yield self.apply_round(round_events)

    # ------------------------------------------------------------------
    # Snapshots (warm starts)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Serialize the full topology state to a JSON-able dict.

        Captures everything :meth:`restore` needs to resume replay
        byte-identically: node configurations (in slot order, so the
        CA2 counters stay aligned), the directed edge list, the
        incremental CA2 witness counters, the spatial grid's current
        cell size, and the topology version.  Derived caches are rebuilt
        on demand and are not part of the state.

        Schema 2 records the propagation model's name, so chained
        restores cannot silently swap the edge semantics mid-chain.
        Schema 3 stores the CA2 counters as sparse ``[u, v, count]``
        triples (row-major, ascending columns).  The dense oracle keeps
        no counters: its snapshots carry ``c2 = None`` and
        ``dense = True``.  Snapshots are idempotent across the chain —
        re-snapshotting a restored graph reproduces the original dict.
        """
        n = len(self._ids)
        src, dst = self._core.edge_pairs(n)
        witnesses = self._core.witness_triples(n)
        c2 = None
        if witnesses is not None:
            c2 = [list(t) for t in zip(*(w.tolist() for w in witnesses))]
        return {
            "schema": 3,
            "propagation": type(self._prop).__name__,
            "dense": witnesses is None,
            "version": self._version,
            "explicit_cell": self._grid_cell,
            "grid_cell_size": self._cell_live if self._use_grid else None,
            "nodes": [
                [
                    int(self._ids[i]),
                    float(self._pos[i, 0]),
                    float(self._pos[i, 1]),
                    float(self._range[i]),
                ]
                for i in range(n)
            ],
            "edges": [[r, c] for r, c in zip(src.tolist(), dst.tolist())],
            "c2": c2,
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        *,
        propagation: PropagationModel | None = None,
        core: str | None = None,
    ) -> AdHocDigraph:
        """Rebuild a graph from a :meth:`snapshot` dict.

        The restored graph continues exactly where the snapshot was
        taken: same slot layout, adjacency, CA2 counters, grid cell
        size and topology version, so subsequent events — and chained
        restores — produce results byte-identical to the original
        instance's.  Accepts schema 1 (no propagation record), 2 and 3;
        a snapshot taken under a non-default propagation model only
        restores when that model is supplied.

        Snapshots are core-independent: ``core`` (default: a dense
        snapshot restores into the dense oracle, any other into the
        ``REPRO_CORE`` core) picks where it lands, and the result
        re-snapshots byte-identically.
        """
        if snapshot.get("kind") == "digraph-delta":
            raise ConfigurationError(
                "restore() was given a delta snapshot; deltas apply to a live "
                "graph at their base version via apply_delta()"
            )
        schema = snapshot.get("schema")
        if schema not in (1, 2, 3):
            raise ConfigurationError(f"unsupported digraph snapshot schema {schema!r}")
        recorded = snapshot.get("propagation")
        if propagation is None and recorded not in (None, FreeSpacePropagation.__name__):
            raise ConfigurationError(
                f"snapshot was taken under propagation model {recorded!r}; pass a "
                "matching model to restore() instead of defaulting to free space"
            )
        if propagation is not None and recorded not in (None, type(propagation).__name__):
            raise ConfigurationError(
                f"snapshot was taken under propagation model {recorded!r}, but "
                f"restore() was given {type(propagation).__name__!r}"
            )
        if core is None and snapshot["dense"]:
            core = "dense"
        nodes = snapshot["nodes"]
        n = len(nodes)
        name, auto = _resolve_core(core)
        if auto and n >= _SPARSE_AUTO_MIN:
            # A graph this large would have promoted during replay;
            # restore straight into the sparse core rather than
            # allocating the O(N²) blocks just to convert them.
            name, auto = "sparse", False
        g = cls(propagation, core=name, grid_cell_size=snapshot["explicit_cell"])
        g._auto = auto
        g._ensure_capacity(max(n, 1))
        for slot, (node_id, x, y, tx_range) in enumerate(nodes):
            g._pos[slot] = (x, y)
            g._range[slot] = tx_range
            g._ids.append(node_id)
            g._ida[slot] = node_id
            g._index[node_id] = slot
        edges = np.asarray(snapshot["edges"], dtype=np.intp).reshape(-1, 2)
        c2 = snapshot["c2"]
        if c2 is None:
            witnesses = None
        elif schema == 3:
            arr = np.asarray(c2, dtype=np.int64).reshape(-1, 3)
            witnesses = (arr[:, 0].astype(np.intp), arr[:, 1].astype(np.intp), arr[:, 2])
        else:  # schema 1/2: a dense N×N counter list
            block = np.asarray(c2, dtype=np.int64).reshape(n, n)
            u, v = np.nonzero(block)
            witnesses = (u, v, block[u, v])
        g._core.load(n, edges[:, 0], edges[:, 1], witnesses)
        if g._use_grid:
            cell = snapshot["grid_cell_size"]
            if cell is None and n:  # schema-1 and oracle snapshots record none
                cell = float(g._range[:n].max())
            if cell is not None:
                g._cell_live = float(cell)
                if n >= _GRID_LAZY_MIN:
                    g._build_grid(g._cell_live)
        g._max_range = float(g._range[:n].max()) if n else 0.0
        g._version = snapshot["version"]
        # A freshly restored graph carries no per-slot mutation history,
        # so the earliest base version it can serve deltas from is its own.
        g._delta_floor = g._version
        return g

    def copy(self) -> AdHocDigraph:
        """Deep copy (same propagation model object, copied arrays)."""
        grid = None if self._grid is None else self._grid.copy()
        return self._clone(self._core.copy(), grid, grid_shared=False)

    def fork(self) -> AdHocDigraph:
        """Copy-on-write fork: a clone sharing the heavy conflict state.

        Both siblings keep referencing the same conflict state and
        spatial grid; the first mutation on either side copies only what
        it touches — whole blocks for the array core and the oracle, the
        individual rows of the mutated slots for the sparse core, the
        grid on its first geometric change.  Flat O(N) per-slot tables
        (positions, ranges, ids) are copied eagerly.  Either sibling may
        keep mutating; results are byte-identical to a :meth:`copy`.
        """
        shared = self._grid is not None
        self._grid_shared = self._grid_shared or shared
        return self._clone(self._core.fork(), self._grid, grid_shared=shared)

    def _clone(self, core: ConflictCore, grid: SlotGridIndex | None, *, grid_shared: bool):
        g = copy.copy(self)
        g._core = core
        g._pos = self._pos.copy()
        g._range = self._range.copy()
        g._ids = list(self._ids)
        g._ida = self._ida.copy()
        g._index = dict(self._index)
        g._touched = dict(self._touched)
        g._grid = grid
        g._grid_shared = grid_shared
        g._memo = {}
        g._memo_version = -1
        g._crow_cache = {}
        g._crow_version = -1
        return g

    # ------------------------------------------------------------------
    # Delta snapshots (O(changes) checkpoints)
    # ------------------------------------------------------------------
    def delta_snapshot(self, base_version: int) -> dict:
        """Serialize only the state touched since ``base_version``.

        Returns a JSON-able delta that :meth:`apply_delta` replays on a
        graph sitting exactly at ``base_version`` (typically a
        :meth:`fork` taken at that version), reproducing this graph's
        state byte-identically — including the CA2 witness counters,
        which are *not* serialized: they are a pure function of the
        final adjacency, so the applier reconstructs them through the
        same incremental kernels live mutation uses.  Chained deltas
        compose: ``delta(v0→v1)`` then ``delta(v1→v2)`` lands on the
        same state as ``delta(v0→v2)``.

        The per-slot dirty journal is overwrite-to-latest, so any base
        at or above :attr:`delta_floor` can be served; earlier bases
        raise :class:`ConfigurationError`.
        """
        if base_version > self._version:
            raise ConfigurationError(
                f"delta base version {base_version} is ahead of the graph "
                f"(version {self._version})"
            )
        if base_version < self._delta_floor:
            raise ConfigurationError(
                f"delta base version {base_version} predates this graph's "
                f"history (serveable floor {self._delta_floor})"
            )
        n = len(self._ids)
        dirty = sorted(s for s, v in self._touched.items() if v > base_version and s < n)
        slots = [
            [
                s,
                int(self._ids[s]),
                float(self._pos[s, 0]),
                float(self._pos[s, 1]),
                float(self._range[s]),
                self.out_slots(s).tolist(),
                self.in_slots(s).tolist(),
            ]
            for s in dirty
        ]
        return {
            "schema": 1,
            "kind": "digraph-delta",
            "base_version": int(base_version),
            "version": int(self._version),
            "n": n,
            "cell": self._cell_live if self._use_grid else None,
            "slots": slots,
        }

    def apply_delta(self, delta: dict) -> None:
        """Replay a :meth:`delta_snapshot` onto this graph.

        The graph must sit exactly at the delta's recorded base version
        — anything else means the delta was cut against a different
        state and would silently diverge, so a mismatch raises
        :class:`ConfigurationError` naming both versions.

        Application is four-phased: (A) unlink every dirty slot and
        every slot beyond the delta's population through the live
        incremental kernels, leaving the untouched induced subgraph;
        (B) adjust the population tables; (C) commit the dirty slots'
        final configurations and bring the spatial grid to the
        recorded cell size — maintained in place (O(dirty) removes and
        inserts) when the cell size is unchanged, rebuilt from scratch
        otherwise; (D) refresh each dirty slot's final out- and in-rows
        through the same kernels, which reconstruct the CA2 counters
        exactly (they are a pure function of the final adjacency, so
        any application order lands on identical bytes).
        """
        if delta.get("kind") != "digraph-delta":
            raise ConfigurationError("apply_delta() expects a delta_snapshot() dict")
        base = delta["base_version"]
        if base != self._version:
            raise ConfigurationError(
                f"delta was cut against base version {base}, but this graph "
                f"is at version {self._version}"
            )
        n0 = len(self._ids)
        n1 = delta["n"]
        records = delta["slots"]
        if not records and n1 == n0:
            # Version-only advance: an empty delta is still valid.
            self._version = delta["version"]
            return
        version = delta["version"]
        dirty = [rec[0] for rec in records]
        dirty_set = set(dirty)
        for s in range(n0, n1):
            if s not in dirty_set:
                raise ConfigurationError(f"corrupt delta: grown slot {s} has no dirty record")

        # Grid plan: when the recorded cell size matches the live grid's,
        # maintain it in place — O(dirty) removes and inserts — instead
        # of rebuilding over all N slots.  A cell-size change (regrid on
        # the producer) or an absent grid falls back to the full rebuild.
        cell = delta["cell"] if self._use_grid else None
        incremental = (
            self._grid is not None and cell is not None and float(cell) == self._grid.cell_size
        )
        if incremental:
            self._own_grid()

        # Phase A — unlink: retract every edge incident to a slot whose
        # content changes (or vanishes), keeping CA2 exact for the
        # surviving subgraph.
        core = self._core
        for s in sorted(set(s for s in dirty if s < n0) | set(range(n1, n0))):
            core.unlink(s, n0)
            if incremental:
                self._grid.remove(s)
            self._index.pop(self._ids[s], None)

        # Phase B — population: shrink or grow the per-slot tables.
        if n1 < n0:
            del self._ids[n1:]
        elif n1 > n0:
            self._ensure_capacity(n1)
            self._ids.extend(0 for _ in range(n1 - n0))
        core.resize(n1)

        # Phase C — configurations: commit each dirty slot's final
        # (id, position, range) and bring the spatial grid along.
        for s, node_id, x, y, r, _out, _inn in records:
            if s >= n1:
                raise ConfigurationError(f"corrupt delta: dirty slot {s} beyond population {n1}")
            self._pos[s] = (x, y)
            self._range[s] = r
            self._ids[s] = node_id
            self._ida[s] = node_id
            self._index[node_id] = s
            self._touched[s] = version
            if incremental:
                self._grid.insert(s, float(x), float(y))
        self._max_range = float(self._range[:n1].max()) if n1 else 0.0
        if self._use_grid:
            self._cell_live = None if cell is None else float(cell)
            if not incremental:
                if self._cell_live is not None and n1 and (
                    n1 >= _GRID_LAZY_MIN or self._grid is not None
                ):
                    self._build_grid(self._cell_live)
                else:
                    self._grid = None
                    self._grid_shared = False

        # Phase D — edges: each dirty slot's final out- and in-row.  The
        # kernels diff against current state, so interleaved dirty-dirty
        # edges commit exactly once no matter the order.
        for s, _nid, _x, _y, _r, out, inn in records:
            core.refresh(s, n1, np.asarray(out, dtype=np.intp), np.asarray(inn, dtype=np.intp))
        self._version = version

    def state_nbytes(self) -> int:
        """Rough in-memory footprint of the conflict state, in bytes.

        Used by checkpoint eviction budgets; counts the heavy conflict
        state plus the flat per-slot tables, not Python object overhead.
        """
        flat = self._pos.nbytes + self._range.nbytes + self._ida.nbytes
        return flat + self._core.nbytes(len(self._ids))

    # ------------------------------------------------------------------
    # Conflict queries
    # ------------------------------------------------------------------
    def conflict_neighbor_ids(self, node_id: NodeId) -> set[NodeId]:
        """Nodes conflicting with ``node_id`` under CA1 ∪ CA2.

        CA1: an edge in either direction; CA2: a common out-neighbor.
        This is the hot query of every recoding strategy.  Results are
        memoized per topology version, so replaying one event against
        many strategies derives each conflict set once.
        """
        memo = self._query_memo()
        cached = memo.get(node_id)
        if _met.ENABLED:
            _met.REGISTRY.inc("core.memo.miss" if cached is None else "core.memo.hit")
        if cached is None:
            row = self._core.conflict_row(self._idx(node_id), len(self._ids))
            cached = memo[node_id] = frozenset(self._ida[row].tolist())
        return set(cached)

    def conflict_slots(self, slot: int) -> np.ndarray:
        """Slots conflicting with ``slot`` under CA1 ∪ CA2 (sorted).

        The slot-native counterpart of :meth:`conflict_neighbor_ids`;
        on the sparse core it is O(deg) work with no N-wide mask.
        """
        return self._core.conflict_row(slot, len(self._ids))

    def conflict_adjacency(self) -> tuple[list[NodeId], np.ndarray]:
        """``(ids, C)`` — the symmetric CA1 ∪ CA2 conflict matrix.

        ``ids`` is ascending; ``C`` is a copy safe to mutate.
        Whole-network consumers (the BBB recolor, clique bounds) use
        this instead of ``conflict_matrix(adjacency())``.  The assembled
        matrix is memoized per topology version (callers receive fresh
        copies).
        """
        memo = self._query_memo()
        cached = memo.get(_CONFLICT_ADJ_KEY)
        if cached is None:
            ids, perm = self._id_order()
            block = self._core.conflict_block(len(self._ids))
            cached = memo[_CONFLICT_ADJ_KEY] = (ids, block[np.ix_(perm, perm)])
        ids, block = cached
        return list(ids), block.copy()

    # ------------------------------------------------------------------
    # Array-native query surface
    # ------------------------------------------------------------------
    # Slot-indexed variants of the id-based queries above.  A *slot* is
    # the node's row index in the contiguous storage blocks; slots stay
    # dense 0..n-1 under swap-delete, so a node's slot is stable only
    # between removals.  Batch consumers translate ids to slots once per
    # event and then work purely on index arrays.

    def slot_of(self, node_id: NodeId) -> int:
        """The storage slot of ``node_id`` (valid until the next removal)."""
        return self._idx(node_id)

    def slot_ids(self) -> np.ndarray:
        """Node ids by slot — ``slot_ids()[s]`` is slot ``s``'s id.

        A read-only int64 view over live slots; copy before storing.
        """
        out = self._ida[: len(self._ids)]
        out.flags.writeable = False
        return out

    def out_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s out-neighbors (ascending index array)."""
        return self._core.out_slots(slot, len(self._ids))

    def in_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s in-neighbors (ascending index array)."""
        return self._core.in_slots(slot, len(self._ids))

    def v1_slots(self, slot: int) -> np.ndarray:
        """Slots of ``slot``'s closed in-neighborhood (``slot`` + in-neighbors).

        The "one-hop upstream vicinity" every event handler revisits:
        the nodes whose conflict rows an event at ``slot`` can change.
        """
        row = self.in_slots(slot)
        pos = int(row.searchsorted(slot))
        out = np.empty(len(row) + 1, dtype=np.intp)
        out[:pos] = row[:pos]
        out[pos] = slot
        out[pos + 1 :] = row[pos:]
        return out

    def conflict_masks(self, slots: np.ndarray) -> np.ndarray:
        """Batched CA1 ∪ CA2 conflict rows for many slots at once.

        Returns a ``(k, n)`` boolean block whose row ``j`` marks the
        slots conflicting with ``slots[j]`` (diagonal cleared) — one
        fused expression on the array core instead of ``k`` separate
        :meth:`conflict_neighbor_ids` calls.  O(k·N) by contract:
        large-N consumers should use :meth:`conflict_slot_lists`.
        """
        return self._core.conflict_rows(np.asarray(slots, dtype=np.intp), len(self._ids))

    def conflict_slot_lists(self, slots: np.ndarray) -> list[np.ndarray]:
        """Per-slot CA1 ∪ CA2 conflict arrays for many slots in one pass.

        Returns ``[conflict_slots(s) for s in slots]`` — same membership
        and order — but the rows are **read-only and version-cached**:
        between two topology mutations every slot's row is derived at
        most once (neighboring V1 queries overlap heavily), and the
        sparse core answers all uncached slots from one sort-and-dedup
        pass.  Do not mutate the returned arrays (they are shared).
        """
        s = np.asarray(slots, dtype=np.intp)
        if not len(s):
            return []
        if self._crow_version != self._version:
            self._crow_cache = {}
            self._crow_version = self._version
        cache = self._crow_cache
        requested = s.tolist()
        members = [u for u in dict.fromkeys(requested) if u not in cache]
        if _met.ENABLED:
            _met.REGISTRY.inc("core.crow_cache.hit", len(requested) - len(members))
            _met.REGISTRY.inc("core.crow_cache.miss", len(members))
        if members:
            cache.update(zip(members, self._core.conflict_lists(members, len(self._ids))))
        return [cache[u] for u in requested]

    def undirected_hop_distances(self, src: NodeId) -> dict[NodeId, int]:
        """BFS hop counts from ``src`` over the undirected support.

        Unreachable nodes are absent from the result.  Used for the
        k-hop vicinities of the CP strategy and for the >= 5 hops apart
        condition of parallel joins (Theorem 4.1.10).
        """
        n = len(self._ids)
        dist = self._core.hop_distances(self._idx(src), n)
        return {self._ids[j]: int(dist[j]) for j in range(n) if dist[j] >= 0}

    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` (test/example interop only)."""
        import networkx as nx

        g = nx.DiGraph()
        for cfg in self.configs():
            g.add_node(cfg.node_id, x=cfg.x, y=cfg.y, tx_range=cfg.tx_range)
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _query_memo(self) -> dict:
        """The derived-query memo for the current topology version."""
        if self._memo_version != self._version:
            self._memo = {}
            self._memo_version = self._version
        return self._memo

    def _idx(self, node_id: NodeId) -> int:
        try:
            return self._index[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def _sorted_ids(self, slots: np.ndarray) -> list[NodeId]:
        return sorted(self._ida[slots].tolist())

    def _id_order(self) -> tuple[list[NodeId], np.ndarray]:
        """Ascending ids and the slot permutation that sorts them."""
        order = sorted(range(len(self._ids)), key=self._ids.__getitem__)
        return [self._ids[j] for j in order], np.asarray(order, dtype=np.intp)

    def _ensure_capacity(self, needed: int) -> None:
        cap = len(self._range)
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        n = len(self._ids)
        pos = np.zeros((new_cap, 2), dtype=np.float64)
        rng = np.zeros(new_cap, dtype=np.float64)
        ida = np.zeros(new_cap, dtype=np.int64)
        pos[:n] = self._pos[:n]
        rng[:n] = self._range[:n]
        ida[:n] = self._ida[:n]
        self._pos, self._range, self._ida = pos, rng, ida
        self._core.reserve(new_cap, n)

    def _stamp(self, slot: int) -> int:
        """Bump the version for a mutation that rewrote ``slot``."""
        self._version += 1
        self._touched[slot] = self._version
        return self._version

    def _admit(self, cfg: NodeConfig) -> int:
        """Commit a joining node's geometry into a fresh, edgeless slot."""
        n = len(self._ids) + 1
        self._ensure_capacity(n)
        i = n - 1
        self._pos[i] = (cfg.x, cfg.y)
        self._range[i] = cfg.tx_range
        if cfg.tx_range > self._max_range:
            self._max_range = float(cfg.tx_range)
        self._ids.append(cfg.node_id)
        self._ida[i] = cfg.node_id
        self._index[cfg.node_id] = i
        self._core.resize(n)
        if self._use_grid:
            self._grid_insert(i, cfg.x, cfg.y, cfg.tx_range)
        return i

    def _relocate(self, i: int, x: float, y: float) -> None:
        """Move slot ``i`` to ``(x, y)`` (positions and grid; no edges)."""
        self._pos[i] = (float(x), float(y))
        if self._grid is not None:
            self._own_grid()
            self._grid.move(i, float(x), float(y))

    def _vacate_slot(self, i: int) -> None:
        """Release slot ``i`` by swap-deleting the last slot into it.

        The facade half of every removal (the core already renumbered
        its own state): unlinks the slot from the grid and the id↔slot
        maps and moves the last slot's position, range and id into ``i``.
        """
        node_id = self._ids[i]
        if self._grid is not None:
            self._own_grid()
            self._grid.remove(i)
        self._index.pop(node_id)
        last = len(self._ids) - 1
        if i != last:
            self._pos[i] = self._pos[last]
            self._range[i] = self._range[last]
            moved = self._ids[last]
            self._ids[i] = moved
            self._ida[i] = moved
            self._index[moved] = i
            if self._grid is not None:
                self._grid.rename(last, i)
        self._ids.pop()

    # -- spatial grid ---------------------------------------------------
    def _own_grid(self) -> None:
        """Privatize a grid shared with a fork sibling before mutating it."""
        if self._grid_shared:
            if self._grid is not None:
                self._grid = self._grid.copy()
            self._grid_shared = False

    def _grid_insert(self, slot: int, x: float, y: float, tx_range: float) -> None:
        """Track ``slot`` in the spatial index (lazily below ``_GRID_LAZY_MIN``).

        While the population is small only the cell-size scalar is
        advanced — per-node upkeep would cost more than the full scans
        the small graph uses anyway — and the grid is bulk-built from the
        position block on first need.
        """
        if self._grid_cell is not None:
            if self._cell_live is None:
                self._cell_live = self._grid_cell  # explicit cell size wins
        else:
            live = self._cell_live
            if live is None or tx_range > _REGRID_FACTOR * live:
                # Regrid rule: a new maximum range outgrowing the cell
                # re-cells the grid so disc queries stay O(1) cells
                # (e.g. the paper's raisefactor sweep).
                self._cell_live = float(tx_range)
        if self._grid is None:
            if len(self._ids) >= _GRID_LAZY_MIN:
                self._build_grid(self._cell_live)
            return
        self._own_grid()
        self._grid.insert(slot, float(x), float(y))
        if self._grid.cell_size != self._cell_live:
            self._build_grid(self._cell_live)

    def _build_grid(self, cell: float) -> None:
        """(Re)build the spatial index over all live slots at ``cell`` size."""
        grid = SlotGridIndex(cell)
        for slot in range(len(self._ids)):
            grid.insert(slot, float(self._pos[slot, 0]), float(self._pos[slot, 1]))
        self._grid = grid
        self._grid_shared = False

    def _candidates(self, i: int, radius: float) -> np.ndarray | None:
        """Grid superset of the slots within ``radius`` of slot ``i``.

        ``None`` means "scan all N": no grid (the oracle, non-disc
        propagation, a deferred build), a non-elementwise model, a
        population spread over too few cells to be selective, or a query
        box holding at least 3/4 of all slots — at that density the
        gather costs more than testing everyone.  Candidates are
        supersets of the exact disc, so both answers filter to identical
        edge sets.
        """
        grid = self._grid
        if grid is None or grid.cell_count <= _MIN_SELECTIVE_CELLS or not self._elementwise:
            return None
        x, y = self._pos[i]
        cand = grid.candidate_slots(
            float(x), float(y), radius, cutoff=max(1, (3 * len(self._ids)) // 4)
        )
        if _met.ENABLED:
            _count_grid_result(cand)
        return cand

    # -- edge sets --------------------------------------------------------
    def _edge_sets(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Final sorted ``(out, in)`` slot sets of ``i``, ``i`` excluded.

        One candidate fetch at the cached maximum range (any node that
        covers or is covered by ``i`` lies within it) and one pairwise
        distance pass answer both directions.  The free-space kernel is
        inlined with the same arithmetic as ``within_disc`` /
        ``covered_by`` (one subtraction, einsum, closed-disc compares).
        """
        n = len(self._ids)
        r = float(self._range[i])
        cand = self._candidates(i, self._max_range)
        if cand is None:
            pos, rng = self._pos[:n], self._range[:n]
        elif not cand.size:
            return EMPTY_SLOTS.copy(), EMPTY_SLOTS.copy()
        else:
            pos, rng = self._pos[cand], self._range[cand]
        if self._fs:
            diff = pos - self._pos[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            cov = d2 <= r * r
            covby = d2 <= rng * rng
        else:
            cov, covby = pairwise_masks(self._prop, self._pos[i], r, pos, rng)
            cov, covby = np.array(cov, dtype=bool), np.array(covby, dtype=bool)
        if cand is None:
            cov[i] = covby[i] = False
            return cov.nonzero()[0], covby.nonzero()[0]
        out = cand[cov]
        inn = cand[covby]
        return np.sort(out[out != i]), np.sort(inn[inn != i])

    def _out_set(self, i: int) -> np.ndarray:
        """Final sorted out slot set of ``i`` only (power changes)."""
        n = len(self._ids)
        r = float(self._range[i])
        cand = self._candidates(i, r)
        if cand is None:
            mask = np.array(self._prop.coverage(self._pos[i], r, self._pos[:n]), dtype=bool)
            mask[i] = False
            return mask.nonzero()[0]
        if not cand.size:
            return EMPTY_SLOTS.copy()
        covered = np.asarray(self._prop.coverage(self._pos[i], r, self._pos[cand]), dtype=bool)
        out = cand[covered]
        return np.sort(out[out != i])

    def _bulk_edge_sets(
        self, slots: list[int]
    ) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
        """Final (out, in) edge sets of many slots from one bucketed sweep.

        The dirty slots are grouped by grid cell; each occupied cell
        makes **one** candidate-window gather
        (:meth:`SlotGridIndex.candidate_slots_cell`) and **one** block
        distance pass (:func:`block_masks`) for all its members, and the
        per-member exact filters cut the shared superset down.  Every
        subtraction and comparison is the same IEEE-754 operation
        :meth:`_edge_sets` performs for the pair, and both candidate
        windows are supersets of the exact disc, so membership is
        byte-identical to the per-slot path — which unselective cells,
        non-elementwise models and gridless graphs fall back to.
        """
        new_out: dict[int, np.ndarray] = {}
        new_in: dict[int, np.ndarray] = {}
        grid = self._grid
        if grid is None or grid.cell_count <= _MIN_SELECTIVE_CELLS or not self._elementwise:
            for i in slots:
                new_out[i], new_in[i] = self._edge_sets(i)
            return new_out, new_in
        cutoff = max(1, (3 * len(self._ids)) // 4)
        pos, rng = self._pos, self._range
        groups: dict[tuple[int, int], list[int]] = {}
        for i in slots:
            groups.setdefault(grid.cell_of(i), []).append(i)
        for (cx, cy), members in groups.items():
            cand = grid.candidate_slots_cell(cx, cy, self._max_range, cutoff=cutoff)
            if _met.ENABLED:
                _count_grid_result(cand)
            if cand is None:
                for i in members:
                    new_out[i], new_in[i] = self._edge_sets(i)
                continue
            g = np.asarray(members, dtype=np.intp)
            ps, rs = pos[g], rng[g]
            cps, crs = pos[cand], rng[cand]
            if self._fs:
                diff = cps[None, :, :] - ps[:, None, :]
                d2 = np.einsum("gcj,gcj->gc", diff, diff)
                cov = d2 <= (rs * rs)[:, None]
                covby = d2 <= (crs * crs)[None, :]
            else:
                cov, covby = block_masks(self._prop, ps, rs, cps, crs)
            for j, i in enumerate(members):
                o = cand[cov[j]]
                new_out[i] = np.sort(o[o != i])
                s = cand[covby[j]]
                new_in[i] = np.sort(s[s != i])
        return new_out, new_in
