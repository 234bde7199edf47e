"""Smallest-last ordering and coloring.

The smallest-last order repeatedly removes a minimum-degree vertex; the
reverse removal order is a classic greedy-coloring order with a color
count bounded by ``1 + max core number`` (degeneracy).  Included both as
an alternative centralized heuristic and to sanity-check BBB/DSATUR
quality in tests and ablations.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.coloring.greedy import greedy_color_matrix
from repro.topology.conflicts import conflict_adjacency, conflict_csr
from repro.topology.digraph import AdHocDigraph
from repro.types import NodeId

__all__ = ["smallest_last_coloring", "smallest_last_node_order", "smallest_last_order"]

_REMOVED = 1 << 62


def smallest_last_order(conflicts: np.ndarray) -> list[int]:
    """Coloring order: reverse of iterated minimum-degree removal.

    Ties break on the lower index for determinism: the live degree and
    the index share one packed key, ``deg·n + i``, minimized by
    ``argmin``; removing a vertex lowers its neighbors' keys by ``n``.
    """
    n = conflicts.shape[0]
    indptr, indices = conflict_csr(conflicts)
    key = np.diff(indptr) * n + np.arange(n)
    bounds = indptr.tolist()
    removal: list[int] = []
    for _ in range(n):
        i = int(key.argmin())
        removal.append(i)
        # Far above any live key; later decrements never bring it back.
        key[i] = _REMOVED
        key[indices[bounds[i] : bounds[i + 1]]] -= n
    removal.reverse()
    return removal


def smallest_last_coloring(graph: AdHocDigraph) -> CodeAssignment:
    """Greedy coloring of the conflict graph in smallest-last order."""
    ids, conflicts = conflict_adjacency(graph)
    colors = greedy_color_matrix(conflicts, smallest_last_order(conflicts))
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})


def smallest_last_node_order(graph: AdHocDigraph) -> list[NodeId]:
    """Smallest-last order expressed in node ids."""
    ids, conflicts = conflict_adjacency(graph)
    return [ids[i] for i in smallest_last_order(conflicts)]
