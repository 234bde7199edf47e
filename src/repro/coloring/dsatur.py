"""Brélaz's DSATUR coloring (reference [9] of the paper).

DSATUR repeatedly colors the uncolored vertex of maximum *saturation
degree* (number of distinct colors among its neighbors), breaking ties by
higher degree, then lower id — a strong centralized heuristic for the
conflict graph.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.assignment import CodeAssignment
from repro.topology.conflicts import conflict_adjacency, conflict_csr
from repro.topology.digraph import AdHocDigraph

__all__ = ["dsatur_coloring", "dsatur_color_matrix"]

_COLORED = -(1 << 62)


def dsatur_color_matrix(conflicts: np.ndarray) -> np.ndarray:
    """DSATUR colors (1-based) for a boolean conflict matrix.

    Each vertex's tie-break tuple (saturation desc, degree desc, index
    asc) lives in one packed int64 key, ``sat·(n+1)·n + deg·n + (n-1-i)``,
    so one ``argmax`` picks the next vertex.  ``used[c, i]`` records that
    a neighbor of ``i`` holds color ``c``; it is color-major so each
    color's row is contiguous, and row 0 is pre-set, so ``argmin`` down
    column ``i`` is ``i``'s first free color.  Neighbors that gain a new
    color get one saturation step added to their keys in one update.
    """
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return colors
    indptr, indices = conflict_csr(conflicts)
    sat_step = (n + 1) * n
    key = np.diff(indptr) * n + np.arange(n - 1, -1, -1)
    used = np.zeros((n + 2, n), dtype=bool)
    used[0] = True
    bounds = indptr.tolist()
    for _ in range(n):
        best = int(key.argmax())
        c = int(used[:, best].argmin())
        colors[best] = c
        # Far below any live key, even after n saturation bumps.
        key[best] = _COLORED
        nbrs = indices[bounds[best] : bounds[best + 1]]
        seen = used[c]
        fresh = nbrs[~seen[nbrs]]
        seen[fresh] = True
        key[fresh] += sat_step
    return colors


def dsatur_coloring(graph: AdHocDigraph) -> CodeAssignment:
    """DSATUR coloring of ``graph``'s CA1 ∪ CA2 conflict graph."""
    ids, conflicts = conflict_adjacency(graph)
    colors = dsatur_color_matrix(conflicts)
    return CodeAssignment({ids[i]: int(colors[i]) for i in range(len(ids))})
