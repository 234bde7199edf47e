"""Conflict cores: the slot-level CA1/CA2 state behind ``AdHocDigraph``.

A conflict core stores the directed adjacency of the live node slots
(``0..n-1`` in the facade's swap-delete layout) and answers the paper's
conflict relation over it.  CA1 is an edge in either direction and CA2
a common out-neighbour, so the conflict matrix is
``A | Aᵀ | (A·Aᵀ > 0)``.  Three cores implement one slot-level protocol
(:class:`ConflictCore`) and are byte-identical in every query:

* :class:`ArrayCore` (default) — flat ``(cap, cap)`` adjacency and CA2
  witness blocks (``C2[u, v] = |out(u) ∩ out(v)|``) updated by batched
  broadcast deltas per event.
* :class:`SparseCore` — CSR-style sorted slot rows plus per-slot
  witness dicts, O(N + E) memory; the large-N core (auto-promoted from
  the array core at 4096 nodes) and the only one that batches rounds.
* :class:`DenseOracle` — adjacency only; the conflict matrix is
  re-derived from the canonical expression once per mutation
  (:func:`repro.topology.conflicts.conflict_matrix`), independently of
  any incremental counter.  The reference the other cores are pinned to.

The facade (:mod:`repro.topology.digraph`) owns everything else — node
ids, positions and ranges, the spatial grid and the edge-set
computation, versions, memos and the delta journal — and hands a core
final sorted out/in slot sets.  ``n`` arguments are the live population.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from itertools import chain
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.errors import DuplicateNodeError, UnknownNodeError
from repro.obs import metrics as _met

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.events.base import Event
    from repro.topology.digraph import AdHocDigraph, TopologyDelta
    from repro.topology.node import NodeConfig

__all__ = ["ArrayCore", "ConflictCore", "DenseOracle", "SparseCore"]

#: ``(u, v, count)`` CA2 witness triples, row-major with ascending ``v``.
Witnesses = tuple[np.ndarray, np.ndarray, np.ndarray]

EMPTY_SLOTS = np.empty(0, dtype=np.intp)
EMPTY_SLOTS.flags.writeable = False

_IOTA = np.arange(256, dtype=np.intp)

try:
    # CPython's Counter backend: C-speed "+1 per occurrence" into an
    # exact dict.  Clique asserts only ever *increase* counters, so
    # bulk-counting keys this way preserves the never-store-zero
    # invariant (minus the self-entry, fixed by hand).
    from collections import _count_elements
except ImportError:  # pragma: no cover - non-CPython fallback

    def _count_elements(mapping: dict, iterable) -> None:
        for key in iterable:
            mapping[key] = mapping.get(key, 0) + 1


def _iota(k: int) -> np.ndarray:
    """A shared ``arange(k)`` view (grown on demand) for diagonal writes."""
    global _IOTA
    if k > len(_IOTA):
        _IOTA = np.arange(2 * k, dtype=np.intp)
    return _IOTA[:k]


def _mask(n: int, slots: np.ndarray) -> np.ndarray:
    """A length-``n`` boolean mask with ``slots`` set."""
    mask = np.zeros(n, dtype=bool)
    mask[slots] = True
    return mask


def _sequential_joins(graph: AdHocDigraph, configs: list[NodeConfig]) -> list[TopologyDelta]:
    from repro.events.base import JoinEvent

    return [graph.apply_event(JoinEvent(cfg)) for cfg in configs]


class ConflictCore(Protocol):
    """The slot-level protocol every conflict core implements.

    The cores subclass it explicitly, so the contract below documents
    their methods.
    """

    #: ``"array"``, ``"sparse"`` or ``"dense"`` (``AdHocDigraph.core``).
    name: str
    #: Whether the facade should maintain a spatial grid for this core
    #: (the oracle scans every slot so its edges never touch the grid).
    spatial_index: bool

    def reserve(self, cap: int, n: int) -> None:
        """The facade's slot capacity grew to ``cap``."""

    def resize(self, n: int) -> None:
        """The live population is now ``n`` (new slots start empty)."""

    def join(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        """Give the fresh, edgeless slot ``i`` its out- and in-rows."""

    def refresh(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        """Replace slot ``i``'s out- and in-rows (move, delta apply)."""

    def set_out(self, i: int, n: int, out: np.ndarray) -> None:
        """Replace slot ``i``'s out-row only (power change)."""

    def unlink(self, i: int, n: int) -> None:
        """Retract every edge of slot ``i``; the slot stays live."""

    def remove(self, i: int, n: int) -> None:
        """Leave: retract slot ``i``, rename slot ``n-1`` into it, drop ``n-1``."""

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the edge ``i -> j`` exists."""

    def out_slots(self, i: int, n: int) -> np.ndarray:
        """Fresh sorted out-neighbour slots of ``i``."""

    def in_slots(self, i: int, n: int) -> np.ndarray:
        """Fresh sorted in-neighbour slots of ``i``."""

    def edge_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of every edge, row-major with ascending ``dst``."""

    def adjacency_block(self, n: int) -> np.ndarray:
        """The ``(n, n)`` boolean adjacency (may be a view: copy to keep)."""

    def hop_distances(self, i: int, n: int) -> np.ndarray:
        """Undirected BFS hop counts from ``i`` (``-1`` = unreachable)."""

    def conflict_row(self, i: int, n: int) -> np.ndarray:
        """Sorted CA1 ∪ CA2 conflict slots of ``i``."""

    def conflict_rows(self, slots: np.ndarray, n: int) -> np.ndarray:
        """``(k, n)`` boolean conflict rows of ``slots`` (diagonal clear)."""

    def conflict_lists(self, slots: Sequence[int], n: int) -> list[np.ndarray]:
        """Read-only sorted conflict rows of distinct ``slots``."""

    def conflict_block(self, n: int) -> np.ndarray:
        """The ``(n, n)`` conflict matrix (may be cached: do not mutate)."""

    def witness_triples(self, n: int) -> Witnesses | None:
        """The CA2 counters for snapshots (``None``: the core keeps none)."""

    def load(self, n: int, src: np.ndarray, dst: np.ndarray, witnesses: Witnesses | None) -> None:
        """Fill an empty core from edges and (optional) witness triples."""

    def fork(self) -> ConflictCore:
        """Copy-on-write clone sharing state until either side writes."""

    def copy(self) -> ConflictCore:
        """Independent deep copy."""

    def nbytes(self, n: int) -> int:
        """Rough footprint of the heavy state, in bytes."""

    def bulk_join(self, graph: AdHocDigraph, configs: list[NodeConfig]) -> list[TopologyDelta]:
        """Admit a join round (see :meth:`AdHocDigraph.bulk_join`)."""

    def apply_round(self, graph: AdHocDigraph, events: list[Event]) -> list[TopologyDelta]:
        """Apply a churn round (see :meth:`AdHocDigraph.apply_round`)."""


# ----------------------------------------------------------------------
# Dense-block cores: array and oracle
# ----------------------------------------------------------------------
class _BlockCore(ConflictCore):
    """State and queries shared by the two ``(cap, cap)``-block cores."""

    spatial_index = True
    #: Names of the per-slot square blocks (all grown, forked and
    #: swap-deleted together).
    _BLOCKS: tuple[str, ...] = ("adj",)

    def __init__(self, cap: int) -> None:
        self.adj = np.zeros((cap, cap), dtype=bool)
        # Copy-on-write: a fork shares the blocks until either side writes.
        self._shared = False

    def _write(self) -> None:
        """Privatize blocks shared with a fork sibling before mutating."""
        if self._shared:
            for name in self._BLOCKS:
                setattr(self, name, getattr(self, name).copy())
            self._shared = False

    def reserve(self, cap: int, n: int) -> None:
        for name in self._BLOCKS:
            old = getattr(self, name)
            grown = np.zeros((cap, cap), dtype=old.dtype)
            grown[:n, :n] = old[:n, :n]
            setattr(self, name, grown)
        self._shared = False

    def resize(self, n: int) -> None:
        pass  # trailing slots are always zero

    def join(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        self.refresh(i, n, out, inn)

    def unlink(self, i: int, n: int) -> None:
        self.refresh(i, n, EMPTY_SLOTS, EMPTY_SLOTS)

    def remove(self, i: int, n: int) -> None:
        self._write()
        self._retract_receiver(i, n)
        last = n - 1
        for name in self._BLOCKS:
            block = getattr(self, name)
            if i != last:
                block[i, :n] = block[last, :n]
                block[:n, i] = block[:n, last]
                block[i, i] = 0
            block[last, :n] = 0
            block[:n, last] = 0

    def _retract_receiver(self, i: int, n: int) -> None:
        """Drop whatever derived state the receiver clique at ``i`` carries."""

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    def out_slots(self, i: int, n: int) -> np.ndarray:
        return self.adj[i, :n].nonzero()[0]

    def in_slots(self, i: int, n: int) -> np.ndarray:
        return self.adj[:n, i].nonzero()[0]

    def edge_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self.adj[:n, :n])

    def adjacency_block(self, n: int) -> np.ndarray:
        return self.adj[:n, :n]

    def hop_distances(self, i: int, n: int) -> np.ndarray:
        a = self.adj[:n, :n]
        undirected = a | a.T
        dist = np.full(n, -1, dtype=np.int64)
        dist[i] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[i] = True
        hops = 0
        while frontier.any():
            hops += 1
            fresh = undirected[frontier].any(axis=0) & (dist < 0)
            dist[fresh] = hops
            frontier = fresh
        return dist

    def conflict_lists(self, slots: Sequence[int], n: int) -> list[np.ndarray]:
        rows = []
        for u in slots:
            row = self.conflict_row(u, n)
            row.flags.writeable = False
            rows.append(row)
        return rows

    def fork(self):
        clone = copy.copy(self)
        self._shared = clone._shared = True
        return clone

    def copy(self):
        clone = copy.copy(self)
        for name in self._BLOCKS:
            setattr(clone, name, getattr(self, name).copy())
        clone._shared = False
        return clone

    def nbytes(self, n: int) -> int:
        return sum(getattr(self, name).nbytes for name in self._BLOCKS)

    def bulk_join(self, graph: AdHocDigraph, configs: list[NodeConfig]) -> list[TopologyDelta]:
        return _sequential_joins(graph, configs)

    def apply_round(self, graph: AdHocDigraph, events: list[Event]) -> list[TopologyDelta]:
        return [graph.apply_event(ev) for ev in events]


class ArrayCore(_BlockCore):
    """Flat adjacency + CA2 witness blocks with batched per-event deltas.

    ``c2[u, v] = |out(u) ∩ out(v)|`` (diagonal 0).  An out-row change of
    ``i`` shifts ``c2[i, ·]`` by one signed matvec over the changed
    receivers' columns; an in-row change retracts the old receiver clique
    and asserts the new one with two broadcast writes.  Exact integer
    arithmetic, so the counters always equal ``A·Aᵀ`` off the diagonal.
    """

    name = "array"
    _BLOCKS = ("adj", "c2")

    def __init__(self, cap: int) -> None:
        super().__init__(cap)
        self.c2 = np.zeros((cap, cap), dtype=np.int32)

    def join(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        # The fresh slot's row, column and counters are zero, so every
        # out-edge contributes +1 (i's witness counts are straight sums
        # over its receivers' columns) and the in-clique is asserted
        # with no retraction: the general deltas on an empty old state.
        self._write()
        a, c2 = self.adj, self.c2
        if out.size:
            cnt = a[:n, out].sum(axis=1, dtype=np.int32)
            c2[i, :n] = cnt
            c2[:n, i] = cnt
            a[i, out] = True
        if inn.size:
            c2[inn[:, None], inn] += 1
            c2[inn, inn] -= 1
            a[inn, i] = True

    def refresh(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        self._write()
        self._set_row(i, n, _mask(n, out))
        self._set_col(i, n, _mask(n, inn))

    def set_out(self, i: int, n: int, out: np.ndarray) -> None:
        self._write()
        self._set_row(i, n, _mask(n, out))

    def _set_row(self, i: int, n: int, new_row: np.ndarray) -> None:
        """When ``i`` starts (stops) covering ``w``, every other in-neighbour
        of ``w`` gains (loses) one witness with ``i``: one signed matvec."""
        a = self.adj
        idx = (a[i, :n] != new_row).nonzero()[0]
        if idx.size:
            sign = np.where(new_row[idx], np.int32(1), np.int32(-1))
            cnt = a[:n, idx] @ sign
            cnt[i] = 0  # no (i, i) pair; i's own row is the one changing
            self.c2[i, :n] += cnt
            self.c2[:n, i] += cnt
        a[i, :n] = new_row

    def _set_col(self, i: int, n: int, new_col: np.ndarray) -> None:
        """Retract the old receiver clique at ``i``, assert the new one.

        Pairs kept in both cancel exactly (integer adds commute); the
        diagonal corrections keep it at 0 by convention.
        """
        a = self.adj
        old_col = a[:n, i]
        if (old_col != new_col).any():
            c2 = self.c2
            old = old_col.nonzero()[0]
            new = new_col.nonzero()[0]
            if old.size:
                c2[old[:, None], old] -= 1
                c2[old, old] += 1
            if new.size:
                c2[new[:, None], new] += 1
                c2[new, new] -= 1
        a[:n, i] = new_col

    def _retract_receiver(self, i: int, n: int) -> None:
        # Every pair of i's in-neighbours loses its witness at i; pairs
        # involving i itself vanish with its row/column.
        src = np.flatnonzero(self.adj[:n, i])
        if src.size > 1:
            self.c2[np.ix_(src, src)] -= 1
            self.c2[src, src] += 1

    def conflict_row(self, i: int, n: int) -> np.ndarray:
        a = self.adj
        mask = a[i, :n] | a[:n, i] | (self.c2[i, :n] > 0)
        mask[i] = False
        return mask.nonzero()[0]

    def conflict_rows(self, slots: np.ndarray, n: int) -> np.ndarray:
        a = self.adj
        rows = a[slots, :n] | a[:n, slots].T | (self.c2[slots, :n] > 0)
        rows[_iota(len(slots)), slots] = False
        return rows

    def conflict_block(self, n: int) -> np.ndarray:
        a = self.adj[:n, :n]
        block = a | a.T | (self.c2[:n, :n] > 0)
        np.fill_diagonal(block, False)
        return block

    def witness_triples(self, n: int) -> Witnesses:
        u, v = np.nonzero(self.c2[:n, :n])
        return u, v, self.c2[u, v]

    def load(self, n: int, src: np.ndarray, dst: np.ndarray, witnesses: Witnesses | None) -> None:
        self.adj[src, dst] = True
        if witnesses is None:
            a = self.adj[:n, :n].astype(np.int32)
            self.c2[:n, :n] = a @ a.T
            np.fill_diagonal(self.c2[:n, :n], 0)
        else:
            u, v, k = witnesses
            self.c2[u, v] = k


class DenseOracle(_BlockCore):
    """Adjacency only; conflicts re-derived as ``A | Aᵀ | (A·Aᵀ > 0)``.

    The obviously-correct reference: no witness counters, no spatial
    grid (every edge comes from a full scan), and the conflict matrix
    recomputed by :func:`repro.topology.conflicts.conflict_matrix` once
    per mutation.
    """

    name = "dense"
    spatial_index = False

    def __init__(self, cap: int) -> None:
        super().__init__(cap)
        self._cm: np.ndarray | None = None

    def _write(self) -> None:
        super()._write()
        self._cm = None

    def refresh(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        self._write()
        self.adj[i, :n] = _mask(n, out)
        self.adj[:n, i] = _mask(n, inn)

    def set_out(self, i: int, n: int, out: np.ndarray) -> None:
        self._write()
        self.adj[i, :n] = _mask(n, out)

    def conflict_block(self, n: int) -> np.ndarray:
        if self._cm is None:
            from repro.topology.conflicts import conflict_matrix

            self._cm = conflict_matrix(self.adj[:n, :n])
        return self._cm

    def conflict_row(self, i: int, n: int) -> np.ndarray:
        return self.conflict_block(n)[i].nonzero()[0]

    def conflict_rows(self, slots: np.ndarray, n: int) -> np.ndarray:
        return self.conflict_block(n)[slots]

    def witness_triples(self, n: int) -> None:
        return None

    def load(self, n: int, src: np.ndarray, dst: np.ndarray, witnesses: Witnesses | None) -> None:
        self.adj[src, dst] = True


# ----------------------------------------------------------------------
# Sparse (CSR rows) core
# ----------------------------------------------------------------------
class _SlotRow:
    """One CSR-style adjacency row: a sorted, growable slot-index array.

    Entries are slots sorted ascending (set algebra runs through
    ``np.setdiff1d(..., assume_unique=True)``, membership through
    ``searchsorted``); the backing array doubles on demand and never
    shrinks.
    """

    __slots__ = ("data", "count")

    def __init__(self, capacity: int = 4) -> None:
        self.data = np.empty(capacity, dtype=np.intp)
        self.count = 0

    def __len__(self) -> int:
        return self.count

    def view(self) -> np.ndarray:
        """The live sorted entries (a view — copy anything you keep)."""
        return self.data[: self.count]

    def values(self) -> np.ndarray:
        """A fresh copy of the sorted entries."""
        return self.data[: self.count].copy()

    def contains(self, slot: int) -> bool:
        # ndarray.searchsorted skips the np.searchsorted dispatch layer.
        pos = int(self.data[: self.count].searchsorted(slot))
        return pos < self.count and int(self.data[pos]) == slot

    def insert(self, slot: int) -> None:
        """Insert ``slot`` keeping sort order (must not be present)."""
        n = self.count
        if n == len(self.data):
            grown = np.empty(2 * len(self.data), dtype=np.intp)
            grown[:n] = self.data[:n]
            self.data = grown
        pos = self.data[:n].searchsorted(slot)
        self.data[pos + 1 : n + 1] = self.data[pos:n]
        self.data[pos] = slot
        self.count = n + 1

    def remove(self, slot: int) -> None:
        """Remove ``slot`` (must be present)."""
        n = self.count
        pos = self.data[:n].searchsorted(slot)
        self.data[pos : n - 1] = self.data[pos + 1 : n]
        self.count = n - 1

    def replace(self, old_slot: int, new_slot: int) -> None:
        """Swap one entry for another (swap-delete slot renumbering)."""
        self.remove(old_slot)
        self.insert(new_slot)

    def set_sorted(self, slots: np.ndarray) -> None:
        """Replace the whole row with an already-sorted slot array."""
        k = len(slots)
        if k > len(self.data):
            cap = len(self.data)
            while cap < k:
                cap *= 2
            self.data = np.empty(cap, dtype=np.intp)
        self.data[:k] = slots
        self.count = k

    def clear(self) -> None:
        self.count = 0

    def copy(self) -> _SlotRow:
        clone = _SlotRow(len(self.data))
        clone.data[: self.count] = self.data[: self.count]
        clone.count = self.count
        return clone


def _c2_inc(entries: dict[int, int], key: int) -> None:
    """Add one witness to a C2 counter entry."""
    entries[key] = entries.get(key, 0) + 1


def _c2_dec(entries: dict[int, int], key: int) -> None:
    """Retract one witness; entries never store zero (pruned here).

    A missing key raises ``KeyError`` — by the maintenance invariant a
    retraction always targets a positive counter, so silent tolerance
    would only hide a bookkeeping bug.
    """
    left = entries[key] - 1
    if left:
        entries[key] = left
    else:
        del entries[key]


class SparseCore(ConflictCore):
    """CSR-style slot rows + per-slot CA2 witness dicts, O(N + E) memory.

    ``outr[u]`` / ``inr[u]`` are sorted out-/in-neighbour slot rows and
    ``c2s[u]`` maps another slot ``v`` to ``|out(u) ∩ out(v)| > 0`` (zero
    entries are deleted), so an edge flip updates ``deg(u)·deg(v)``-bounded
    entries instead of a full row.  Forks share the per-slot objects and
    copy exactly the slots their replay touches (:meth:`_own`).  Join and
    move runs of a round are committed as one batch
    (:meth:`apply_round`, :meth:`bulk_join`).
    """

    name = "sparse"
    spatial_index = True

    def __init__(self, cap: int = 0) -> None:
        self.outr: list[_SlotRow] = []
        self.inr: list[_SlotRow] = []
        self.c2s: list[dict[int, int]] = []
        # Row-level copy-on-write (see fork()).
        self._cow = False
        self._owned: set[int] = set()

    def _own(self, slot: int) -> None:
        """Privatize one slot shared with a fork sibling before writing it."""
        if self._cow and slot not in self._owned:
            self.outr[slot] = self.outr[slot].copy()
            self.inr[slot] = self.inr[slot].copy()
            self.c2s[slot] = dict(self.c2s[slot])
            self._owned.add(slot)

    def reserve(self, cap: int, n: int) -> None:
        pass  # rows grow one slot at a time in resize()

    def resize(self, n: int) -> None:
        outr, inr, c2s = self.outr, self.inr, self.c2s
        del outr[n:], inr[n:], c2s[n:]
        while len(outr) < n:
            if self._cow:
                # Fresh rows are private, never shared with a sibling.
                self._owned.add(len(outr))
            outr.append(_SlotRow())
            inr.append(_SlotRow())
            c2s.append({})

    def join(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        self.refresh(i, n, out, inn)

    def refresh(self, i: int, n: int, out: np.ndarray, inn: np.ndarray) -> None:
        self.set_out(i, n, out)
        self._set_in(i, inn)

    def set_out(self, i: int, n: int, new_out: np.ndarray) -> None:
        """Replace ``i``'s out-row, aggregating the C2 deltas per co-parent.

        When ``i`` starts (stops) covering ``w``, every other in-neighbour
        of ``w`` gains (loses) one witness with ``i``.  The changed
        receivers' in-rows are concatenated, one ``np.unique`` collapses
        them to distinct co-parents and signed ``np.bincount`` counts
        become one merged update per ``(i, u)`` pair.
        """
        self._own(i)
        inr, c2s = self.inr, self.c2s
        row_i = self.outr[i]
        old_out = row_i.view()
        if old_out.size:
            added = np.setdiff1d(new_out, old_out, assume_unique=True)
            removed = np.setdiff1d(old_out, new_out, assume_unique=True)
        else:
            added, removed = new_out, old_out
        if added.size or removed.size:
            # Removals drop i from the in-row first (the remaining members
            # are the losers); additions read the row before i joins it
            # (the existing members are the gainers) — their inserts are
            # deferred, because the gathered views alias live buffers
            # until the concatenate copies.
            added_list = added.tolist()
            parts: list[np.ndarray] = []
            gained = 0
            for w in added_list:
                v = inr[w].view()
                if v.size:
                    parts.append(v)
                    gained += v.size
            for w in removed.tolist():
                self._own(w)
                row = inr[w]
                row.remove(i)
                v = row.view()
                if v.size:
                    parts.append(v)
            if parts:
                flat = np.concatenate(parts)
                uniq, inv = np.unique(flat, return_inverse=True)
                delta = np.bincount(inv[:gained], minlength=uniq.size)
                delta -= np.bincount(inv[gained:], minlength=uniq.size)
                di = c2s[i]
                for u, d in zip(uniq.tolist(), delta.tolist()):
                    if d == 0:
                        continue  # gains and losses at u cancelled exactly
                    self._own(u)
                    for entries, key in ((di, u), (c2s[u], i)):
                        left = entries.get(key, 0) + d
                        if left > 0:
                            entries[key] = left
                        elif left == 0:
                            del entries[key]
                        else:  # a witness count went negative: bookkeeping bug
                            raise KeyError(key)
            for w in added_list:
                self._own(w)
                inr[w].insert(i)
        row_i.set_sorted(new_out)

    def _set_in(self, i: int, new_in: np.ndarray) -> None:
        """Replace ``i``'s in-row: reconcile the receiver clique."""
        self._own(i)
        outr, inr = self.outr, self.inr
        old_in = inr[i].values()
        self._reconcile_receiver(i, old_in, new_in)
        if old_in.size:
            arrived = np.setdiff1d(new_in, old_in, assume_unique=True)
            departed = np.setdiff1d(old_in, new_in, assume_unique=True)
        else:  # join fast path: every in-neighbour is new
            arrived, departed = new_in, old_in
        for u in arrived.tolist():
            self._own(u)
            outr[u].insert(i)
        for u in departed.tolist():
            self._own(u)
            outr[u].remove(i)
        inr[i].set_sorted(new_in)

    def _reconcile_receiver(self, w: int, old: np.ndarray, new: np.ndarray) -> None:
        """Fused C2 update for receiver ``w``'s in-set change old → new.

        With arrivals ``A = new \\ old``, departures ``R = old \\ new`` and
        keepers ``K = old ∩ new``: retract ``(r, u)`` for ``r ∈ R, u ∈ old
        \\ {r}`` plus ``(k, r)`` for ``k ∈ K``; assert the mirror pairs over
        ``new`` and ``A``.  Pairs among the keepers cancel and are never
        touched, so the work is O((|A|+|R|)·deg(w)).
        """
        if len(old) == len(new) and np.array_equal(old, new):
            return
        c2s = self.c2s
        if old.size:
            added = np.setdiff1d(new, old, assume_unique=True)
            removed = np.setdiff1d(old, new, assume_unique=True)
            kept = np.setdiff1d(old, removed, assume_unique=True).tolist()
        else:  # join fast path: the whole new clique is asserted
            added, removed, kept = new, old, []
        olds = old.tolist()
        for r in removed.tolist():
            self._own(r)
            dr = c2s[r]
            for u in olds:
                if u != r:
                    _c2_dec(dr, u)
            for k in kept:
                self._own(k)
                _c2_dec(c2s[k], r)
        news = new.tolist()
        for a in added.tolist():
            # Assertions only increase counters, so the member list is
            # bulk-counted at C speed; the one self-count (a ∈ news) is
            # backed out by hand (the diagonal is never stored).
            self._own(a)
            da = c2s[a]
            _count_elements(da, news)
            left = da[a] - 1
            if left:
                da[a] = left
            else:
                del da[a]
            for k in kept:
                self._own(k)
                _c2_inc(c2s[k], a)

    def unlink(self, i: int, n: int) -> None:
        # The receiver clique at i dissolves, the incident rows drop i,
        # and every witness pair involving i vanishes with its dict.
        self._own(i)
        outr, inr, c2s = self.outr, self.inr, self.c2s
        old_in = inr[i].values()
        self._reconcile_receiver(i, old_in, EMPTY_SLOTS)
        for u in old_in.tolist():
            self._own(u)
            outr[u].remove(i)
        inr[i].clear()
        for w in outr[i].view().tolist():
            self._own(w)
            inr[w].remove(i)
        outr[i].clear()
        for u in c2s[i]:
            self._own(u)
            del c2s[u][i]
        c2s[i] = {}

    def remove(self, i: int, n: int) -> None:
        self.unlink(i, n)
        last = n - 1
        if i != last:
            self._rename(last, i)
        self.resize(last)

    def _rename(self, last: int, i: int) -> None:
        """Renumber slot ``last`` to the (fully unlinked) slot ``i``."""
        outr, inr, c2s = self.outr, self.inr, self.c2s
        row = outr[last]
        for w in row.view().tolist():
            self._own(w)
            inr[w].replace(last, i)
        col = inr[last]
        for u in col.view().tolist():
            self._own(u)
            outr[u].replace(last, i)
        entries = c2s[last]
        for v in entries:
            self._own(v)
            mirror = c2s[v]
            mirror[i] = mirror.pop(last)
        outr[i] = row
        inr[i] = col
        c2s[i] = entries
        if self._cow:
            # The moved row objects transferred by reference: slot i
            # inherits slot last's ownership status.
            if last in self._owned:
                self._owned.discard(last)
                self._owned.add(i)
            else:
                self._owned.discard(i)

    # -- queries -----------------------------------------------------------
    def has_edge(self, i: int, j: int) -> bool:
        return self.outr[i].contains(j)

    def out_slots(self, i: int, n: int) -> np.ndarray:
        return self.outr[i].values()

    def in_slots(self, i: int, n: int) -> np.ndarray:
        return self.inr[i].values()

    def edge_pairs(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        rows = self.outr[:n]
        counts = np.fromiter((row.count for row in rows), dtype=np.intp, count=n)
        dst = np.concatenate([row.view() for row in rows]) if n else EMPTY_SLOTS.copy()
        return np.repeat(np.arange(n, dtype=np.intp), counts), dst

    def adjacency_block(self, n: int) -> np.ndarray:
        # O(N²) by contract: whole-network consumers only.
        block = np.zeros((n, n), dtype=bool)
        for i in range(n):
            block[i, self.outr[i].view()] = True
        return block

    def hop_distances(self, i: int, n: int) -> np.ndarray:
        # Frontier BFS over the rows: O(E reached), no dense block.
        dist = np.full(n, -1, dtype=np.int64)
        dist[i] = 0
        frontier = [i]
        hops = 0
        while frontier:
            hops += 1
            parts = [self.outr[u].view() for u in frontier]
            parts += [self.inr[u].view() for u in frontier]
            reached = np.unique(np.concatenate(parts))
            fresh = reached[dist[reached] < 0]
            dist[fresh] = hops
            frontier = fresh.tolist()
        return dist

    def conflict_row(self, i: int, n: int) -> np.ndarray:
        out = self.outr[i].view()
        inn = self.inr[i].view()
        entries = self.c2s[i]
        if entries:
            keys = np.fromiter(entries.keys(), dtype=np.intp, count=len(entries))
            return np.unique(np.concatenate((out, inn, keys)))
        return np.union1d(out, inn)

    def conflict_rows(self, slots: np.ndarray, n: int) -> np.ndarray:
        rows = np.zeros((len(slots), n), dtype=bool)
        for j, slot in enumerate(slots.tolist()):
            rows[j, self.conflict_row(slot, n)] = True
        return rows

    def conflict_lists(self, slots: Sequence[int], n: int) -> list[np.ndarray]:
        """Conflict rows of many slots from one sort-and-dedup pass.

        Each slot's out/in/witness members are offset into a disjoint
        ``[j·n, (j+1)·n)`` band, the union is sorted and deduplicated
        globally, and band boundaries come from one ``searchsorted`` —
        one pass instead of one ``np.unique`` per slot.
        """
        outr, inr, c2s = self.outr, self.inr, self.c2s
        k = len(slots)
        row_parts: list[np.ndarray] = []
        row_lens: list[int] = []
        key_lens: list[int] = []
        for u in slots:
            ov = outr[u].view()
            iv = inr[u].view()
            row_parts += (ov, iv)
            row_lens.append(ov.size + iv.size)
            key_lens.append(len(c2s[u]))
        bands = np.arange(k, dtype=np.intp) * n
        flat = np.concatenate(row_parts)
        flat += np.repeat(bands, row_lens)
        total_keys = sum(key_lens)
        if total_keys:
            # One fromiter over every member's witness keys beats one
            # array materialization per dict by a wide margin.
            keys = np.fromiter(
                chain.from_iterable(c2s[u] for u in slots), dtype=np.intp, count=total_keys
            )
            keys += np.repeat(bands, key_lens)
            flat = np.concatenate((flat, keys))
        if not flat.size:
            return [EMPTY_SLOTS] * k
        # Explicit sort + adjacent-dedup: the bands are near-sorted runs,
        # and it avoids np.unique's hash path (~5x slower at these sizes).
        flat.sort()
        keep = np.empty(flat.size, dtype=bool)
        keep[0] = True
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        merged = flat[keep]
        bounds = merged.searchsorted(bands[1:]).tolist()
        bounds.append(merged.size)
        rows = []
        lo = 0
        for j, hi in enumerate(bounds):
            row = merged[lo:hi] - j * n  # strips the band offset
            row.flags.writeable = False
            rows.append(row)
            lo = hi
        return rows

    def conflict_block(self, n: int) -> np.ndarray:
        a = self.adjacency_block(n)
        block = a | a.T
        for u, entries in enumerate(self.c2s[:n]):
            if entries:
                block[u, list(entries)] = True
        np.fill_diagonal(block, False)
        return block

    # -- persistence -------------------------------------------------------
    def witness_triples(self, n: int) -> Witnesses:
        # Dict keys are only transiently ordered: sort each row.
        us: list[int] = []
        vs: list[int] = []
        ks: list[int] = []
        for u, entries in enumerate(self.c2s[:n]):
            for v in sorted(entries):
                us.append(u)
                vs.append(v)
                ks.append(entries[v])
        return (
            np.asarray(us, dtype=np.intp),
            np.asarray(vs, dtype=np.intp),
            np.asarray(ks, dtype=np.int64),
        )

    def load(self, n: int, src: np.ndarray, dst: np.ndarray, witnesses: Witnesses | None) -> None:
        self.resize(n)
        if not n:
            return
        for rows, key, val in ((self.outr, src, dst), (self.inr, dst, src)):
            order = np.lexsort((val, key))
            bounds = np.searchsorted(key[order], np.arange(n + 1))
            vals = val[order]
            for slot in range(n):
                rows[slot].set_sorted(vals[bounds[slot] : bounds[slot + 1]])
        c2s = self.c2s
        if witnesses is None:
            # No counters recorded (an oracle snapshot): each receiver's
            # in-clique contributes one witness per ordered pair.
            for slot in range(n):
                members = self.inr[slot].view().tolist()
                for a in members:
                    da = c2s[a]
                    for b in members:
                        if b != a:
                            _c2_inc(da, b)
            return
        for u, v, count in zip(*(w.tolist() for w in witnesses)):
            c2s[u][v] = count

    def fork(self) -> SparseCore:
        clone = SparseCore()
        clone.outr = list(self.outr)
        clone.inr = list(self.inr)
        clone.c2s = list(self.c2s)
        # Every row is shared again after a fork — including rows a
        # previous fork had already privatized on this side.
        self._cow = clone._cow = True
        self._owned = set()
        return clone

    def copy(self) -> SparseCore:
        clone = SparseCore()
        clone.outr = [row.copy() for row in self.outr]
        clone.inr = [row.copy() for row in self.inr]
        clone.c2s = [dict(d) for d in self.c2s]
        return clone

    def nbytes(self, n: int) -> int:
        total = 0
        for s in range(n):
            total += self.outr[s].data.nbytes + self.inr[s].data.nbytes
            total += 64 * len(self.c2s[s])
        return total

    # -- round batching ----------------------------------------------------
    def bulk_join(self, graph: AdHocDigraph, configs: list[NodeConfig]) -> list[TopologyDelta]:
        """Commit a join round in three streaming passes.

        Geometry for every joiner, one grid-bucketed edge-set sweep
        (:meth:`AdHocDigraph._bulk_edge_sets`), and one grouped
        structural/C2 commit per touched receiver — so admission cost
        scales with touched neighbourhoods, never with N per event.
        """
        from repro.topology.digraph import TopologyDelta

        if len(configs) < 2:
            return _sequential_joins(graph, configs)
        # Pre-validate: batched geometry must not fail half-written.
        seen: set[int] = set()
        for cfg in configs:
            if cfg.node_id in graph or cfg.node_id in seen:
                raise DuplicateNodeError(cfg.node_id)
            seen.add(cfg.node_id)
        if _met.ENABLED:
            _met.REGISTRY.inc("core.join.bulk", len(configs))
            _met.REGISTRY.inc("core.join.bulk_batches")
        deltas = []
        dirty: list[int] = []
        for cfg in configs:
            i = graph._admit(cfg)
            dirty.append(i)
            deltas.append(TopologyDelta("join", cfg.node_id, graph._stamp(i)))
        # Fresh slots have empty rows, so the old sides are all empty.
        old = dict.fromkeys(dirty, EMPTY_SLOTS)
        new_out, new_in = graph._bulk_edge_sets(dirty)
        self._commit_dirty_rows(dirty, len(graph), old, old, new_out, new_in)
        return deltas

    def apply_round(self, graph: AdHocDigraph, events: list[Event]) -> list[TopologyDelta]:
        """Batch each contiguous join/move run; apply the rest in order.

        Leave and power events flush the run (a leave renumbers slots and
        must capture the departing configuration; a power delta must
        capture the pre-event conflict set).
        """
        from repro.events.base import JoinEvent, MoveEvent

        deltas: list[TopologyDelta] = []
        batch: list[Event] = []
        for ev in events:
            if isinstance(ev, (JoinEvent, MoveEvent)):
                batch.append(ev)
            else:
                self._flush_run(graph, batch, deltas)
                deltas.append(graph.apply_event(ev))
        self._flush_run(graph, batch, deltas)
        return deltas

    def _flush_run(self, graph: AdHocDigraph, batch: list, deltas: list) -> None:
        """Commit a join/move run: exact because the final adjacency
        depends only on each live node's final (position, range)."""
        from repro.events.base import JoinEvent
        from repro.topology.digraph import TopologyDelta

        if len(batch) < 2:
            deltas.extend(graph.apply_event(ev) for ev in batch)
            batch.clear()
            return
        if all(isinstance(ev, JoinEvent) for ev in batch):
            deltas.extend(self.bulk_join(graph, [ev.config for ev in batch]))
            batch.clear()
            return
        # Pre-validate the whole run: sequential application reports
        # these per event; batched geometry must not fail half-written.
        joined: set[int] = set()
        for ev in batch:
            if isinstance(ev, JoinEvent):
                if ev.config.node_id in graph or ev.config.node_id in joined:
                    raise DuplicateNodeError(ev.config.node_id)
                joined.add(ev.config.node_id)
            elif ev.node_id not in graph and ev.node_id not in joined:
                raise UnknownNodeError(ev.node_id)
        # Commit geometry for the whole run in order, emitting deltas.
        dirty: dict[int, None] = {}
        for ev in batch:
            if isinstance(ev, JoinEvent):
                i = graph._admit(ev.config)
                kind = "join"
            else:
                i = graph.slot_of(ev.node_id)
                graph._relocate(i, ev.x, ev.y)
                kind = "move"
            dirty[i] = None
            deltas.append(TopologyDelta(kind, ev.node_id, graph._stamp(i)))
        dirty_slots = list(dirty)
        old_out = {i: self.outr[i].values() for i in dirty_slots}
        old_in = {i: self.inr[i].values() for i in dirty_slots}
        new_out, new_in = graph._bulk_edge_sets(dirty_slots)
        self._commit_dirty_rows(dirty_slots, len(graph), old_out, old_in, new_out, new_in)
        batch.clear()

    def _commit_dirty_rows(
        self,
        dirty_slots: list[int],
        n: int,
        old_out: dict[int, np.ndarray],
        old_in: dict[int, np.ndarray],
        new_out: dict[int, np.ndarray],
        new_in: dict[int, np.ndarray],
    ) -> None:
        """Flip the dirty slots' edges and reconcile C2, grouped by receiver.

        Every dirty row's asserted and retracted receivers concatenate
        into one (receiver, source) array pair — retractions carry
        ``~source`` so one intp array holds both signs — dirty receivers
        are masked out, and one stable argsort yields the per-receiver
        runs, so an outside receiver hit by k events reconciles once.
        """
        outr, inr, c2s = self.outr, self.inr, self.c2s
        dirty_set = set(dirty_slots)
        recv_parts: list[np.ndarray] = []
        src_parts: list[np.ndarray] = []
        for i in dirty_slots:
            old = old_out[i]
            if old.size:
                add = np.setdiff1d(new_out[i], old, assume_unique=True)
                rem = np.setdiff1d(old, new_out[i], assume_unique=True)
            else:  # join fast path: every receiver is newly asserted
                add, rem = new_out[i], old
            if add.size:
                recv_parts.append(add)
                src_parts.append(np.full(add.size, i, dtype=np.intp))
            if rem.size:
                recv_parts.append(rem)
                src_parts.append(np.full(rem.size, ~i, dtype=np.intp))
        groups: list[tuple[int, np.ndarray]] = []
        if recv_parts:
            recv = np.concatenate(recv_parts)
            src = np.concatenate(src_parts)
            is_dirty = np.zeros(n, dtype=bool)
            is_dirty[dirty_slots] = True
            keep = ~is_dirty[recv]
            if keep.any():
                recv = recv[keep]
                src = src[keep]
                order = recv.argsort(kind="stable")
                recv = recv[order]
                src = src[order]
                starts = np.flatnonzero(np.diff(recv)) + 1
                receivers = recv[np.concatenate((np.zeros(1, dtype=np.intp), starts))]
                groups = list(zip(receivers.tolist(), np.split(src, starts)))

        # C2 reconciliation, one pass per changed receiver row.  Dirty
        # receivers get the full old → new reconcile; an outside receiver
        # hit by one event takes the cheap incremental update, and only
        # receivers hit by several events pay the fused reconcile.
        for w in dirty_slots:
            self._reconcile_receiver(w, old_in[w], new_in[w])
        for w, seg in groups:
            self._own(w)
            row = inr[w]
            if seg.size == 1:
                i = int(seg[0])
                if i >= 0:
                    self._own(i)
                    di = c2s[i]
                    for u in row.view().tolist():
                        self._own(u)
                        _c2_inc(di, u)
                        _c2_inc(c2s[u], i)
                    row.insert(i)
                else:
                    i = ~i
                    row.remove(i)
                    self._own(i)
                    di = c2s[i]
                    for u in row.view().tolist():
                        self._own(u)
                        _c2_dec(di, u)
                        _c2_dec(c2s[u], i)
                continue
            adds = seg[seg >= 0]
            dels = ~seg[seg < 0]
            old = row.values()
            new = old
            if dels.size:
                new = np.setdiff1d(new, np.sort(dels), assume_unique=True)
            if adds.size:
                new = np.union1d(new, adds)
            self._reconcile_receiver(w, old, new)
            row.set_sorted(new)

        # Structural flips: dirty rows replaced wholesale, non-dirty
        # sources get their grouped out-row edits.
        for i in dirty_slots:
            self._own(i)
            old = old_in[i]
            if old.size:
                arrived = np.setdiff1d(new_in[i], old, assume_unique=True)
                departed = np.setdiff1d(old, new_in[i], assume_unique=True)
            else:  # join fast path: every in-neighbour is new
                arrived, departed = new_in[i], old
            for u in arrived.tolist():
                if u not in dirty_set:
                    self._own(u)
                    outr[u].insert(i)
            for u in departed.tolist():
                if u not in dirty_set:
                    self._own(u)
                    outr[u].remove(i)
            outr[i].set_sorted(new_out[i])
            inr[i].set_sorted(new_in[i])
