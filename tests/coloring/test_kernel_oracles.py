"""The array coloring kernels match the original per-vertex loops exactly.

``reference_kernels`` holds the pre-array kernels verbatim.  Every test
here demands equality, not just a proper coloring: DSATUR colors,
smallest-last order, first-fit colors for that order, and the BBB
choice between the two must all be bit-for-bit the same, because the
BBB lane's recoding counts depend on every tie-break.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.assignment import ArrayCodeAssignment, CodeAssignment
from repro.coloring.bbb import bbb_coloring
from repro.coloring.dsatur import dsatur_color_matrix
from repro.coloring.greedy import greedy_color_matrix
from repro.coloring.smallest_last import smallest_last_order
from repro.topology.conflicts import conflict_degree, conflict_matrix
from tests.coloring.reference_kernels import (
    reference_bbb_colors,
    reference_dsatur_color_matrix,
    reference_greedy_color_matrix,
    reference_smallest_last_order,
)
from tests.conftest import make_random_graph


class _MatrixGraph:
    """A graph stub whose native conflict query returns a fixed matrix."""

    def __init__(self, conflicts: np.ndarray, ids: list[int] | None = None) -> None:
        self._conflicts = conflicts
        self._ids = list(range(len(conflicts))) if ids is None else ids

    def conflict_adjacency(self):
        return list(self._ids), self._conflicts.copy()


def _symmetric(upper: np.ndarray) -> np.ndarray:
    c = np.triu(upper, 1)
    return c | c.T


def _random_matrix(n: int, density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return _symmetric(rng.random((n, n)) < density)


def _relabel(conflicts: np.ndarray, seed: int) -> np.ndarray:
    """``conflicts`` under a random vertex permutation (moves index ties)."""
    perm = np.random.default_rng(seed).permutation(len(conflicts))
    return conflicts[np.ix_(perm, perm)]


def _empty(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=bool)


def _complete(n: int) -> np.ndarray:
    c = np.ones((n, n), dtype=bool)
    np.fill_diagonal(c, False)
    return c


def _cliques(count: int, size: int) -> np.ndarray:
    """``count`` disjoint equal cliques of ``size`` vertices."""
    block = np.arange(count * size) // size
    c = block[:, None] == block[None, :]
    np.fill_diagonal(c, False)
    return c


def _star(leaves: int) -> np.ndarray:
    c = _empty(leaves + 1)
    c[0, 1:] = c[1:, 0] = True
    return c


def _regular(n: int, k: int) -> np.ndarray:
    """Circulant ``k``-regular graph (``k`` even, ``k < n``): a cycle at k=2."""
    c = _empty(n)
    idx = np.arange(n)
    for step in range(1, k // 2 + 1):
        c[idx, (idx + step) % n] = c[(idx + step) % n, idx] = True
    return c


def _assert_kernels_match(conflicts: np.ndarray) -> None:
    np.testing.assert_array_equal(
        dsatur_color_matrix(conflicts), reference_dsatur_color_matrix(conflicts)
    )
    order = smallest_last_order(conflicts)
    assert order == reference_smallest_last_order(conflicts)
    np.testing.assert_array_equal(
        greedy_color_matrix(conflicts, order), reference_greedy_color_matrix(conflicts, order)
    )
    chosen = bbb_coloring(_MatrixGraph(conflicts))
    expected = reference_bbb_colors(conflicts)
    assert chosen.as_dict() == {i: int(c) for i, c in enumerate(expected)}


TIE_HEAVY = {
    "empty-0": _empty(0),
    "empty-1": _empty(1),
    "empty-17": _empty(17),
    "complete-2": _complete(2),
    "complete-25": _complete(25),
    "cliques-5x4": _cliques(5, 4),
    "cliques-3x9": _cliques(3, 9),
    "cliques-12x1": _cliques(12, 1),
    "star-1": _star(1),
    "star-30": _star(30),
    "cycle-3": _regular(3, 2),
    "cycle-40": _regular(40, 2),
    "regular-30-4": _regular(30, 4),
    "regular-64-10": _regular(64, 10),
    "regular-150-20": _regular(150, 20),
}


@pytest.mark.parametrize("name", list(TIE_HEAVY))
def test_tie_heavy_families_match_reference(name):
    _assert_kernels_match(TIE_HEAVY[name])


@pytest.mark.parametrize("name", list(TIE_HEAVY))
@pytest.mark.parametrize("seed", [0, 1])
def test_relabelled_tie_heavy_families_match_reference(name, seed):
    _assert_kernels_match(_relabel(TIE_HEAVY[name], seed))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 150),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_conflict_matrices_match_reference(n, density, seed):
    _assert_kernels_match(_random_matrix(n, density, seed))


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["cliques", "star", "regular"]),
    a=st.integers(1, 12),
    b=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_tie_heavy_families_match_reference(kind, a, b, seed):
    if kind == "cliques":
        conflicts = _cliques(a, b)
    elif kind == "star":
        conflicts = _star(a * b)
    else:
        n = a + b + 2
        conflicts = _regular(n, 2 * min(a, (n - 1) // 2))
    _assert_kernels_match(_relabel(conflicts, seed))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 80), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_greedy_matches_reference_in_any_order(n, density, seed):
    conflicts = _random_matrix(n, density, seed)
    order = np.random.default_rng(seed + 1).permutation(n).tolist()
    np.testing.assert_array_equal(
        greedy_color_matrix(conflicts, order), reference_greedy_color_matrix(conflicts, order)
    )


@pytest.mark.parametrize("seed", [101, 106, 184])
def test_bbb_keeps_smallest_last_when_it_uses_fewer_colors(seed):
    # samples where the reference BBB took the smallest-last coloring
    conflicts = _random_matrix(40, 0.3, seed)
    expected = reference_bbb_colors(conflicts)
    assert expected.max() < reference_dsatur_color_matrix(conflicts).max()
    assert bbb_coloring(_MatrixGraph(conflicts)).as_dict() == dict(enumerate(expected.tolist()))


def test_bbb_with_negative_ids_falls_back_to_the_dict_container():
    conflicts = _cliques(2, 3)
    ids = [-3, -2, -1, 0, 1, 2]
    result = bbb_coloring(_MatrixGraph(conflicts, ids))
    assert type(result) is CodeAssignment
    assert result.as_dict() == dict(zip(ids, reference_bbb_colors(conflicts).tolist()))


def test_from_arrays_equals_pairwise_assignment():
    nodes = np.array([5, 0, 130, 7])
    colors = np.array([2, 1, 70, 2])
    bulk = ArrayCodeAssignment.from_arrays(nodes, colors)
    pairwise = ArrayCodeAssignment(dict(zip(nodes.tolist(), colors.tolist())))
    assert bulk == pairwise
    assert bulk.max_color() == pairwise.max_color() == 70
    assert len(bulk) == 4 and bulk.used_colors() == {1, 2, 70}
    bulk.unassign(130)
    assert bulk.max_color() == 2
    assert len(ArrayCodeAssignment.from_arrays(np.array([]), np.array([]))) == 0
    with pytest.raises(ValueError):
        ArrayCodeAssignment.from_arrays(np.array([1]), np.array([0]))
    with pytest.raises(ValueError):
        ArrayCodeAssignment.from_arrays(np.array([-1]), np.array([1]))


@pytest.mark.parametrize("old_cls", [CodeAssignment, ArrayCodeAssignment])
@pytest.mark.parametrize("new_cls", [CodeAssignment, ArrayCodeAssignment])
def test_changes_to_is_container_independent(old_cls, new_cls):
    old = old_cls({0: 1, 1: 2, 3: 3, 200: 4})  # 200 is absent from the new one
    new = new_cls({0: 1, 1: 3, 2: 1, 3: 2, 90: 5})
    assert old.changes_to(new) == {1: (2, 3), 2: (None, 1), 3: (3, 2), 90: (None, 5)}
    assert list(old.changes_to(new)) == [1, 2, 3, 90]
    assert old_cls().changes_to(new_cls()) == {}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conflict_degree_matches_the_dense_derivation(seed):
    g = make_random_graph(seed=seed, n=30)
    ids, adj = g.adjacency()
    dense = conflict_matrix(adj).sum(axis=1)
    assert conflict_degree(g) == {v: int(dense[i]) for i, v in enumerate(ids)}
