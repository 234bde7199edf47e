"""``RecodeOnJoin`` / ``RecodeOnMove`` — matching-based local recoding.

Paper Fig 3 / Fig 8.  When node ``n`` joins (or arrives at a new
position), all of ``V1 = 1n ∪ 2n ∪ {n}`` must end up pairwise distinct:
every member of ``1n ∪ 2n`` transmits into ``n`` (CA2 at receiver ``n``)
and each has an edge with ``n`` (CA1).  The algorithm:

1. collect, for each ``u ∈ V1``, the colors forbidden by conflict
   neighbors *outside* ``V1`` (their colors cannot change);
2. let ``max`` be the largest color seen among those constraints and the
   old colors in ``1n ∪ 2n``; set ``V2 = {1..max}``;
3. build the bipartite graph ``V1 × V2`` with an edge ``(u, k)`` when
   ``k`` is not forbidden for ``u`` — weight 3 if ``k`` is ``u``'s old
   color, else weight 1;
4. take a maximum-weight matching; matched nodes adopt their matched
   color, unmatched nodes take fresh colors ``max+1, max+2, …``.

Lemma 4.1.6 guarantees each ``u ∈ 1n ∪ 2n`` keeps its old-color edge, so
the maximum-weight matching preserves one holder per duplicated color
class — recoding exactly ``Σ(K_i − 1)`` members (Theorem 4.1.8,
minimality) while reusing the smallest possible palette (Theorem 4.1.9,
optimality among minimal one-hop strategies).

Tie-breaking.  The paper's matching is any maximum-weight one; for
deterministic, reproducible runs we refine ties lexicographically:
(1) maximum paper weight, (2) maximum cardinality (fewer fresh colors),
(3) lower matched colors, (4) lower-id nodes keep their colors.  Each
level is encoded at a separate magnitude in the integer edge weights, so
the refinement only ever selects *among* maximum-weight matchings and
all paper theorems continue to hold.  The levels do not make the optimum
unique: two members that allow the same fresh colors can swap them at
equal weight.  The Hungarian solver's augmenting-path order breaks those
remaining ties, deterministically, so the ``"scipy"`` backend (whose
solver breaks them its own way) is a weight oracle, not a drop-in: it
finds the same matched weight and recode count, not always the same
coloring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.coloring.assignment import CodeAssignment
from repro.coloring.constraints import forbidden_colors
from repro.matching import WeightedBipartiteGraph, max_weight_matching
from repro.topology.neighborhoods import join_partition
from repro.topology.static import DigraphLike
from repro.types import Color, NodeId

__all__ = [
    "LocalRecodePlan",
    "minimal_join_bound",
    "minimal_move_bound",
    "plan_local_matching_recode",
]


@dataclass(frozen=True)
class LocalRecodePlan:
    """The outcome of the matching construction.

    Attributes
    ----------
    node:
        The joining / moving node ``n``.
    v1:
        The recoding candidate set ``1n ∪ 2n ∪ {n}``.
    max_color_seen:
        ``max`` of step 3 (size of the color palette ``V2``).
    new_colors:
        Complete new coloring of ``V1`` (including unchanged members).
    changes:
        ``{u: (old, new)}`` restricted to actual changes.
    messages:
        Analytic message count: one request + one reply per in-neighbor
        for constraint collection (steps 1-2), plus one dissemination
        message per recoded neighbor (step 6).
    """

    node: NodeId
    v1: frozenset[NodeId]
    max_color_seen: int
    new_colors: dict[NodeId, Color]
    changes: dict[NodeId, tuple[Color | None, Color]]
    messages: int


def v1_weight_graph(
    v1_list: list[NodeId],
    old_colors: dict[NodeId, Color | None],
    constraints: dict[NodeId, set[Color]],
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
) -> WeightedBipartiteGraph:
    """Steps 3-4 of Fig 3: the ``V1 × {1..max}`` graph to be matched.

    Its right side is the palette ``1..max`` (so ``len(graph.right)`` is
    ``max``).  Each ``V1`` member gets one dense weight row carrying the
    lexicographic tie-breaking of the module docstring; every weight is
    a positive integer (exact in float64) and ``0.0`` marks a forbidden
    color.
    """
    if old_color_weight < 1 or fresh_color_weight < 1:
        raise ValueError("weights must be positive integers")
    # Step 3: the palette upper bound.
    max_seen = 0
    for u in v1_list:
        old = old_colors.get(u)
        if old is not None:
            max_seen = max(max_seen, old)
        forb = constraints[u]
        if forb:
            max_seen = max(max_seen, max(forb))

    # Step 4: weight w·k1 + k2 + (max − k)·k3 + (|V1| − pos) for color k
    # of the member at position pos, w the paper weight (3 or 1).
    n_left = len(v1_list)
    m_right = max_seen
    k3 = n_left * n_left + 1  # low-color preference unit
    k2 = n_left * m_right * k3 + n_left * n_left + 1  # cardinality unit
    k1 = (n_left + 1) * k2  # paper-weight unit
    palette = range(1, m_right + 1)
    color_terms = [(m_right - k) * k3 for k in palette]
    rows: list[list[float]] = []
    for pos, u in enumerate(v1_list):
        old = old_colors.get(u)
        forbidden = constraints[u]
        base = k2 + (n_left - pos)
        fresh = fresh_color_weight * k1 + base
        row = [
            0.0 if k in forbidden else float(fresh + term)
            for k, term in zip(palette, color_terms)
        ]
        if old is not None and old not in forbidden:
            row[old - 1] = float(old_color_weight * k1 + base + color_terms[old - 1])
        rows.append(row)
    return WeightedBipartiteGraph.from_rows(v1_list, palette, rows)


def solve_v1_assignment(
    v1_list: list[NodeId],
    old_colors: dict[NodeId, Color | None],
    constraints: dict[NodeId, set[Color]],
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
    backend: str = "hungarian",
) -> tuple[dict[NodeId, Color], int]:
    """Steps 3-5 of Fig 3 on already-collected local data.

    This is the computation node ``n`` performs once constraint
    collection finishes; the distributed runtime calls it directly on
    message payloads, the oracle strategy via
    :func:`plan_local_matching_recode`.

    Returns ``(new_colors, max_color_seen)`` where ``new_colors`` covers
    every ``V1`` member.
    """
    bip = v1_weight_graph(
        v1_list,
        old_colors,
        constraints,
        old_color_weight=old_color_weight,
        fresh_color_weight=fresh_color_weight,
    )
    max_seen = len(bip.right)

    # Step 5: maximum-weight matching; unmatched take fresh colors in
    # v1_list order (members ascending by id, then n).
    matching = max_weight_matching(bip, backend=backend)
    new_colors: dict[NodeId, Color] = {}
    next_fresh = max_seen + 1
    for u in v1_list:
        matched = matching.pairs.get(u)
        if matched is None:
            new_colors[u] = next_fresh
            next_fresh += 1
        else:
            new_colors[u] = matched
    return new_colors, max_seen


def plan_local_matching_recode(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
    *,
    old_color_weight: int = 3,
    fresh_color_weight: int = 1,
    backend: str = "hungarian",
) -> LocalRecodePlan:
    """Plan the matching-based recode for a joined or moved ``node``.

    ``graph`` must already reflect the new topology.  For a join the
    node has no color in ``assignment``; for a move it keeps its old
    color, which (per Fig 8) competes for retention through a weight-3
    edge exactly like every other ``V1`` member.

    ``old_color_weight``/``fresh_color_weight`` parameterize the paper's
    3/1 weights (the weight ablation lowers ``old_color_weight`` to 1).
    """
    part = join_partition(graph, node)
    members = sorted(part.in_neighbors)
    v1_list = members + [node]  # n last: fresh colors end at n (Fig 4)
    v1_set = frozenset(v1_list)

    # Steps 1-2: constraints from conflict neighbors outside V1, on the
    # *new* topology.  Old colors of V1 members do not constrain each
    # other (they are all being re-decided together).
    constraints: dict[NodeId, set[Color]] = {
        u: forbidden_colors(graph, assignment, u, exclude=v1_set) for u in v1_list
    }
    old_colors: dict[NodeId, Color | None] = {u: assignment.get(u) for u in v1_list}

    new_colors, max_seen = solve_v1_assignment(
        v1_list,
        old_colors,
        constraints,
        old_color_weight=old_color_weight,
        fresh_color_weight=fresh_color_weight,
        backend=backend,
    )

    changes = {
        u: (assignment.get(u), c) for u, c in new_colors.items() if assignment.get(u) != c
    }
    messages = 2 * len(members) + sum(1 for u in changes if u != node)
    return LocalRecodePlan(
        node=node,
        v1=v1_set,
        max_color_seen=max_seen,
        new_colors=new_colors,
        changes=changes,
        messages=messages,
    )


def minimal_join_bound(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
) -> int:
    """Lemma 4.1.1 bound: ``Σ(K_i − 1)`` member recodes plus 1 for ``n``.

    ``{K_i}`` are the multiplicities of the old colors in ``1n ∪ 2n``.
    Call with the joined topology but before applying any changes.
    """
    part = join_partition(graph, node)
    classes: dict[Color, int] = {}
    for u in part.in_neighbors:
        c = assignment[u]
        classes[c] = classes.get(c, 0) + 1
    member_recodes = sum(k - 1 for k in classes.values())
    return member_recodes + 1


def minimal_move_bound(
    graph: DigraphLike,
    assignment: CodeAssignment,
    node: NodeId,
) -> int:
    """The move analogue of Lemma 4.1.1 (Theorem 4.4.4).

    With the mover ``n`` holding an old color, ``V1``'s duplicated color
    classes force ``Σ(K_i − 1)`` recodes; additionally ``n`` itself must
    recode when its old color is *externally* forbidden at the new
    position even though no ``V1`` member shares it (members' old colors
    are never externally forbidden, by the Lemma 4.1.6 argument).
    Call with the moved topology, before applying changes.
    """
    part = join_partition(graph, node)
    v1_set = frozenset(part.v1)
    classes: dict[Color, int] = {}
    for u in sorted(v1_set):
        classes[assignment[u]] = classes.get(assignment[u], 0) + 1
    base = sum(k - 1 for k in classes.values())
    own = assignment[node]
    if classes[own] == 1 and own in forbidden_colors(graph, assignment, node, exclude=v1_set):
        base += 1
    return base
