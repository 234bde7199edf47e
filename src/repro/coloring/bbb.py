"""The BBB centralized coloring baseline.

The paper's evaluation compares against "a strategy that uses a
centralized coloring heuristic: the BBB algorithm of [7]" (Battiti,
Bertossi, Bonuccelli, *Assigning codes in wireless networks*, 1999),
recoloring the entire network at every event.

**Substitution note (see DESIGN.md §3).**  The paper gives no pseudo-code
for BBB; its role in the evaluation is a near-optimal centralized
conflict-graph coloring.  We implement it as DSATUR (Brélaz [9], which
this line of work builds on) over the CA1 ∪ CA2 conflict graph, with a
smallest-last fallback pass that keeps whichever coloring uses fewer
colors.  This preserves the two behaviours the evaluation depends on:
the lowest max-color curve among all strategies, and wholesale recoloring
(huge recoding counts) at every event.
"""

from __future__ import annotations

import numpy as np

from repro.coloring.assignment import ArrayCodeAssignment, CodeAssignment
from repro.coloring.dsatur import dsatur_color_matrix
from repro.coloring.greedy import greedy_color_matrix
from repro.coloring.smallest_last import smallest_last_order
from repro.topology.conflicts import conflict_adjacency
from repro.topology.digraph import AdHocDigraph

__all__ = ["bbb_coloring"]


def bbb_coloring(graph: AdHocDigraph) -> CodeAssignment:
    """Centralized near-optimal coloring of the conflict graph.

    Runs DSATUR and smallest-last greedy, returning the assignment with
    the smaller maximum color (ties prefer DSATUR).  Deterministic.
    Non-negative ids (every :class:`AdHocDigraph`) come back as an
    :class:`ArrayCodeAssignment`, built in bulk, which a lane's array
    assignment diffs with one comparison.
    """
    ids, conflicts = conflict_adjacency(graph)
    dsatur = dsatur_color_matrix(conflicts)
    sl = greedy_color_matrix(conflicts, smallest_last_order(conflicts))
    ds_max = int(dsatur.max()) if len(dsatur) else 0
    sl_max = int(sl.max()) if len(sl) else 0
    chosen = dsatur if ds_max <= sl_max else sl
    nodes = np.asarray(ids, dtype=np.int64)
    if len(nodes) and nodes.min() < 0:
        return CodeAssignment(dict(zip(ids, chosen.tolist())))
    return ArrayCodeAssignment.from_arrays(nodes, chosen)
