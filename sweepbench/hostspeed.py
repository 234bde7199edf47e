"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same run can report a median pass of 3.8 s once
and 6.7 s twenty minutes later (see README.md, "Observed noise"):
other tenants slow every instruction, in phases that last longer than
a run.  A run
therefore times this kernel before and after each pass, and scales
each time it reports by ``NOMINAL_S / kernel time``: the scaled times
read as seconds on a host that runs the kernel in ``NOMINAL_S``.

The kernel is the benchmark's own code and touches nothing of
``repro``, so a change to the program cannot change it.  It mixes the
two kinds of work a sweep does: pure-Python graph code (sets, dicts,
sorting; greedy coloring of a random graph) and small numpy array
passes (distances from each of a few hundred points).  Garbage
collection is off while it runs, so the heap it runs beside does not
slow it.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

import numpy as np

__all__ = ["NOMINAL_S", "reference_seconds"]

#: Seconds the kernel takes on the host the scale is expressed in: a
#: round figure in the 0.12–0.26 s it takes on a 2-vCPU Xeon KVM guest.
NOMINAL_S = 0.2
_ROUNDS = 12


def _graph_round(rng: random.Random) -> int:
    n = 1500
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(6 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    color: dict[int, int] = {}
    for v in sorted(range(n), key=lambda v: -len(adj[v])):
        used = {color[u] for u in adj[v] if u in color}
        c = 0
        while c in used:
            c += 1
        color[v] = c
    return max(color.values())


def _array_round(points: np.ndarray) -> float:
    total = 0.0
    for i in range(0, len(points), 4):
        d = np.hypot(*(points - points[i]).T)
        total += float(np.sort(d)[:8].sum())
    return total


def reference_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        rng = random.Random(12345)
        points = np.random.default_rng(7).random((400, 2))
        for _ in range(_ROUNDS):
            _graph_round(rng)
            _array_round(points)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
