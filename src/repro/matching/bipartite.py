"""Weighted bipartite graph model for the matching layer.

The graph stores its weights as dense rows, one plain list of floats
per left vertex with one cell per right vertex; ``0.0`` marks a
forbidden pair.  The matchers read those rows directly, so building a
graph costs one list per left vertex rather than one dict entry per
edge.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import TypeVar

import numpy as np

from repro.errors import MatchingError

__all__ = ["WeightedBipartiteGraph", "MatchingResult"]

L = TypeVar("L", bound=Hashable)
R = TypeVar("R", bound=Hashable)


@dataclass
class WeightedBipartiteGraph:
    """Bipartite graph with strictly positive edge weights.

    Left vertices are matching *subjects* (nodes to recode), right
    vertices are *resources* (colors).  Absent edges are forbidden pairs.
    Vertex order is preserved; it determines deterministic tie-breaking
    in the solvers.

    Weights live in dense rows (``weight_rows()[i][j]`` for ``left[i]``
    and ``right[j]``, ``0.0`` when forbidden): :meth:`add_left` appends
    a zero row, :meth:`add_right` a zero column and :meth:`add_edge`
    sets one cell.  :meth:`from_rows` takes prebuilt rows whole.
    """

    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    _rows: list[list[float]] = field(default_factory=list, repr=False)
    _left_index: dict = field(default_factory=dict, repr=False)
    _right_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._left_index = {v: i for i, v in enumerate(self.left)}
        self._right_index = {v: i for i, v in enumerate(self.right)}
        if len(self._left_index) != len(self.left):
            raise MatchingError("duplicate left vertices")
        if len(self._right_index) != len(self.right):
            raise MatchingError("duplicate right vertices")
        if not self._rows:
            width = len(self.right)
            self._rows = [[0.0] * width for _ in self.left]

    @classmethod
    def from_rows(
        cls, left: Sequence, right: Sequence, rows: list[list[float]]
    ) -> "WeightedBipartiteGraph":
        """A graph whose weights are ``rows`` (taken over, not copied).

        ``rows[i][j]`` is the weight of ``left[i] -- right[j]``: a
        positive float is an edge, ``0.0`` a forbidden pair.  Raises
        :class:`MatchingError` on a shape mismatch or a negative entry,
        as :meth:`add_edge` rejects non-positive weights.
        """
        if len(rows) != len(left):
            raise MatchingError(f"{len(rows)} weight rows for {len(left)} left vertices")
        width = len(right)
        for row in rows:
            if len(row) != width:
                raise MatchingError(f"weight row of length {len(row)}, expected {width}")
            if row and min(row) < 0:
                raise MatchingError(f"edge weight must be positive, got {min(row)}")
        return cls(left=list(left), right=list(right), _rows=rows)

    # ------------------------------------------------------------------
    def add_left(self, vertex) -> None:
        """Append a left vertex (with no edges yet)."""
        if vertex in self._left_index:
            raise MatchingError(f"duplicate left vertex {vertex!r}")
        self._left_index[vertex] = len(self.left)
        self.left.append(vertex)
        self._rows.append([0.0] * len(self.right))

    def add_right(self, vertex) -> None:
        """Append a right vertex (with no edges yet)."""
        if vertex in self._right_index:
            raise MatchingError(f"duplicate right vertex {vertex!r}")
        self._right_index[vertex] = len(self.right)
        self.right.append(vertex)
        for row in self._rows:
            row.append(0.0)

    def add_edge(self, left, right, weight: float) -> None:
        """Add edge ``left -- right`` with a strictly positive weight."""
        if weight <= 0:
            raise MatchingError(f"edge weight must be positive, got {weight}")
        if left not in self._left_index:
            raise MatchingError(f"unknown left vertex {left!r}")
        if right not in self._right_index:
            raise MatchingError(f"unknown right vertex {right!r}")
        self._rows[self._left_index[left]][self._right_index[right]] = float(weight)

    def weight(self, left, right) -> float | None:
        """Weight of the edge, or ``None`` if absent."""
        i = self._left_index.get(left)
        j = self._right_index.get(right)
        if i is None or j is None:
            return None
        w = self._rows[i][j]
        return w if w > 0 else None

    def has_edge(self, left, right) -> bool:
        """Whether the (allowed) edge exists."""
        return self.weight(left, right) is not None

    def edges(self) -> list[tuple]:
        """All ``(left, right, weight)`` triples, row-major."""
        right = self.right
        return [
            (l, right[j], w)
            for l, row in zip(self.left, self._rows)
            for j, w in enumerate(row)
            if w > 0
        ]

    def edge_count(self) -> int:
        """Number of edges."""
        return sum(1 for row in self._rows for w in row if w > 0)

    def weight_rows(self) -> list[list[float]]:
        """The dense weight rows themselves (not a copy); 0 marks forbidden."""
        return self._rows

    def weight_matrix(self) -> np.ndarray:
        """Dense ``(|left|, |right|)`` weight matrix; 0 marks forbidden."""
        shape = (len(self.left), len(self.right))
        return np.array(self._rows, dtype=np.float64).reshape(shape)


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of a matching computation.

    Attributes
    ----------
    pairs:
        ``left -> right`` for every matched left vertex.
    total_weight:
        Sum of the matched edge weights.
    """

    pairs: dict
    total_weight: float

    @property
    def cardinality(self) -> int:
        """Number of matched pairs."""
        return len(self.pairs)

    def validate_against(self, graph: WeightedBipartiteGraph) -> None:
        """Raise :class:`MatchingError` unless this is a matching of ``graph``.

        Checks edge existence, left-uniqueness (implied by dict) and
        right-uniqueness, and that ``total_weight`` is consistent.
        """
        used_right = set()
        weight = 0.0
        for l, r in self.pairs.items():
            w = graph.weight(l, r)
            if w is None:
                raise MatchingError(f"matched pair ({l!r}, {r!r}) is not an edge")
            if r in used_right:
                raise MatchingError(f"right vertex {r!r} matched twice")
            used_right.add(r)
            weight += w
        if abs(weight - self.total_weight) > 1e-9:
            raise MatchingError(
                f"total_weight {self.total_weight} inconsistent with edges ({weight})"
            )
