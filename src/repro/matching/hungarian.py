"""Maximum-weight bipartite matching via shortest augmenting paths.

This is a from-scratch Jonker–Volgenant-style implementation of the
Hungarian method on a dense cost matrix with dual potentials, O(n^2 m)
for ``n`` left and ``m`` right vertices.

Unmatched vertices are allowed: the cost matrix is padded with ``n``
zero-weight dummy columns so every left vertex can always be "assigned",
and dummy / forbidden assignments are dropped from the result.  Because
all real edge weights are strictly positive, the optimal padded solution
restricted to real edges is exactly the maximum-weight matching.

The loop is scalar Python over plain lists on purpose.  The matrices
Minim hands over are tiny: the ``sweepbench`` workloads at seed 2001
solve |V1| = 1–32 rows against palettes of at most 38 colors (mean
``n·m`` ≈ 94 on ``store-warm``, ≈ 130 on ``paper-figs``).  At that size
a vectorized relaxation step spends its time in the overhead of ~15
small numpy calls per step, and the scalar loop is ~5× faster at 8×14
and ~2× at 32×40; a numpy loop only pulls ahead somewhere between 64×80
and 128×160, which Minim does not reach because node degree, hence
|V1|, stays at paper density whatever N is.

Ties are broken exactly as the vectorized formulation broke them, so
matchings are identical: columns are relaxed in ascending order with a
strict ``cur < minv[j]``, the next column is the *first* one holding
the minimum (``np.argmin``'s rule), ``cur`` is evaluated as
``(cost - u[i0]) - v[j]`` in float64, and the potentials of used and
unused columns move by the same ``delta`` in the same places.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph

__all__ = ["hungarian_matching", "solve_max_weight_dense"]

_INF = float("inf")


def solve_max_weight_dense(
    weights: np.ndarray | Sequence[Sequence[float]],
) -> list[tuple[int, int]]:
    """Maximum-weight matching of a dense weight matrix.

    Parameters
    ----------
    weights:
        ``(n, m)`` array, or a list of ``n`` equal-length rows; entries
        ``<= 0`` mark forbidden pairs, positive entries are edge weights.

    Returns
    -------
    list of ``(row, col)`` matched index pairs (rows ascending).
    """
    if isinstance(weights, np.ndarray):
        weights = weights.astype(np.float64, copy=False).tolist()
    n = len(weights)
    m = len(weights[0]) if n else 0
    if m == 0:
        return []

    # Min-cost square-free formulation: cost = -weight for allowed pairs,
    # 0 for forbidden pairs and for the n dummy columns.  Minimizing cost
    # over row-perfect assignments maximizes matched weight; dummy and
    # forbidden picks cost 0 i.e. "leave unmatched".  Rows and columns
    # are 1-based like the JV arrays (index 0 is padding).
    pad = [0.0] * n
    cost = [[]]
    for row in weights:
        cost.append([0.0, *[-float(x) if x > 0 else 0.0 for x in row], *pad])
    if not any(min(crow) < 0.0 for crow in cost[1:]):
        return []

    m_tot = m + n
    # 1-based JV arrays: p[j] = row matched to column j (0 = none).
    u = [0.0] * (n + 1)
    v = [0.0] * (m_tot + 1)
    p = [0] * (m_tot + 1)
    way = [0] * (m_tot + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [_INF] * (m_tot + 1)
        free = list(range(1, m_tot + 1))  # unused columns, ascending
        used = [0]
        while True:
            i0 = p[j0]
            row = cost[i0]
            ui0 = u[i0]
            # Relax every unused column; j1 = first column at the minimum.
            delta = _INF
            j1 = 0
            for j in free:
                cur = row[j] - ui0 - v[j]
                mj = minv[j]
                if cur < mj:
                    minv[j] = mj = cur
                    way[j] = j0
                if mj < delta:
                    delta = mj
                    j1 = j
            # Update potentials (j1 is still unused here).
            for j in used:
                u[p[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
            free.remove(j1)
            used.append(j1)
        # Unwind the augmenting path.
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    pairs: list[tuple[int, int]] = []
    for j in range(1, m + 1):  # dummy columns j > m are ignored
        i = p[j]
        if i != 0 and cost[i][j] < 0:
            pairs.append((i - 1, j - 1))
    pairs.sort()
    return pairs


def hungarian_matching(graph: WeightedBipartiteGraph) -> MatchingResult:
    """Maximum-weight matching of ``graph`` (see module docstring)."""
    rows = graph.weight_rows()
    pairs_idx = solve_max_weight_dense(rows)
    left, right = graph.left, graph.right
    pairs = {left[i]: right[j] for i, j in pairs_idx}
    total = 0.0
    for i, j in pairs_idx:
        total += rows[i][j]
    return MatchingResult(pairs=pairs, total_weight=total)
