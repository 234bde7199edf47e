"""Matching substrate: weighted bipartite matching.

``RecodeOnJoin`` / ``RecodeOnMove`` reduce recoding to a maximum-weight
matching on a bipartite graph between nodes and colors (paper Fig 3,
step 5, treating the matching algorithm "as a black box").  This package
is that black box, implemented from scratch:

* :class:`~repro.matching.bipartite.WeightedBipartiteGraph` — the graph
  model, stored as dense weight rows (one list of floats per left
  vertex; positive cells are edges, ``0.0`` marks a forbidden pair).
* :func:`~repro.matching.hungarian.hungarian_matching` — maximum-weight
  (not necessarily perfect) matching via shortest augmenting paths with
  potentials, O(n^2 m), a scalar loop over those rows.
* :func:`~repro.matching.hopcroft_karp.hopcroft_karp_matching` —
  maximum-cardinality matching (used by tests and ablations).
* :mod:`~repro.matching.scipy_backend` — optional SciPy
  ``linear_sum_assignment`` backend, used as an independent oracle of
  the matched weight (it breaks equal-weight ties its own way).
"""

from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph
from repro.matching.hopcroft_karp import hopcroft_karp_matching
from repro.matching.hungarian import hungarian_matching

__all__ = [
    "MatchingResult",
    "WeightedBipartiteGraph",
    "hopcroft_karp_matching",
    "hungarian_matching",
    "max_weight_matching",
]


def max_weight_matching(
    graph: WeightedBipartiteGraph,
    backend: str = "hungarian",
) -> MatchingResult:
    """Maximum-weight matching of ``graph`` with the chosen backend.

    Parameters
    ----------
    backend:
        ``"hungarian"`` (default, no dependencies) or ``"scipy"``.
    """
    if backend == "hungarian":
        return hungarian_matching(graph)
    if backend == "scipy":
        from repro.matching.scipy_backend import scipy_matching

        return scipy_matching(graph)
    raise ValueError(f"unknown matching backend {backend!r}")
