"""Reference kernels: the original per-vertex coloring loops, kept as oracles.

The production kernels in ``repro.coloring`` (``dsatur_color_matrix``,
``smallest_last_order``, ``greedy_color_matrix``) are array rewrites of
the functions below and must match them exactly — same colors, same
order, same tie-breaks.  These bodies are kept verbatim so the
equivalence tests compare against the behaviour that produced every
stored BBB series; do not optimise them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "reference_bbb_colors",
    "reference_dsatur_color_matrix",
    "reference_greedy_color_matrix",
    "reference_smallest_last_order",
]


def reference_dsatur_color_matrix(conflicts: np.ndarray) -> np.ndarray:
    """DSATUR colors (1-based) for a boolean conflict matrix."""
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    if n == 0:
        return colors
    degree = conflicts.sum(axis=1)
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    for _ in range(n):
        # Max saturation, then max degree, then min index.
        best = min(uncolored, key=lambda i: (-len(neighbor_colors[i]), -int(degree[i]), i))
        used = neighbor_colors[best]
        c = 1
        while c in used:
            c += 1
        colors[best] = c
        uncolored.discard(best)
        for j in np.flatnonzero(conflicts[best]):
            neighbor_colors[int(j)].add(c)
    return colors


def reference_smallest_last_order(conflicts: np.ndarray) -> list[int]:
    """Coloring order: reverse of iterated minimum-degree removal.

    Ties break on the lower index for determinism.
    """
    n = conflicts.shape[0]
    degree = conflicts.sum(axis=1).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    removal: list[int] = []
    for _ in range(n):
        alive_idx = np.flatnonzero(alive)
        i = int(alive_idx[np.lexsort((alive_idx, degree[alive_idx]))[0]])
        removal.append(i)
        alive[i] = False
        degree[conflicts[i] & alive] -= 1
    removal.reverse()
    return removal


def reference_greedy_color_matrix(conflicts: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """First-fit colors (1-based) for a conflict matrix in ``order``.

    ``order`` is a permutation of matrix indices; node ``order[0]`` gets
    color 1, later nodes get the smallest color not used by their already
    colored conflict neighbors.
    """
    n = conflicts.shape[0]
    colors = np.zeros(n, dtype=np.int64)
    for i in order:
        neighbor_colors = colors[conflicts[i]]
        used = set(int(c) for c in neighbor_colors[neighbor_colors > 0])
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    return colors


def reference_bbb_colors(conflicts: np.ndarray) -> np.ndarray:
    """The colors the original ``bbb_coloring`` picked for ``conflicts``:
    DSATUR unless smallest-last greedy uses strictly fewer colors."""
    dsatur = reference_dsatur_color_matrix(conflicts)
    sl = reference_greedy_color_matrix(conflicts, reference_smallest_last_order(conflicts))
    ds_max = int(dsatur.max()) if len(dsatur) else 0
    sl_max = int(sl.max()) if len(sl) else 0
    return dsatur if ds_max <= sl_max else sl
