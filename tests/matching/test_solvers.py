"""Tests for the matching solvers: Hungarian, Hopcroft–Karp, SciPy oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.matching import (
    WeightedBipartiteGraph,
    hopcroft_karp_matching,
    hungarian_matching,
    max_weight_matching,
)
from repro.matching.hungarian import solve_max_weight_dense
from repro.matching.scipy_backend import scipy_matching
from repro.strategies.minim.join import v1_weight_graph


def graph_from_matrix(w: np.ndarray) -> WeightedBipartiteGraph:
    n, m = w.shape
    g = WeightedBipartiteGraph(left=list(range(n)), right=[f"c{j}" for j in range(m)])
    for i in range(n):
        for j in range(m):
            if w[i, j] > 0:
                g.add_edge(i, f"c{j}", float(w[i, j]))
    return g


def _reference_jv(weights: np.ndarray) -> list[tuple[int, int]]:
    """The vectorized (numpy) Jonker–Volgenant loop, kept verbatim as an oracle.

    ``solve_max_weight_dense`` is a scalar rewrite of exactly this loop
    and must pick the same augmenting paths, hence return identical
    pairs: on equal-weight ties a weight-only oracle (SciPy) cannot tell
    the two apart, and Minim's colorings depend on which optimum wins.
    """
    w = np.asarray(weights, dtype=np.float64)
    n, m = w.shape
    if n == 0 or m == 0 or not (w > 0).any():
        return []

    cost = np.zeros((n, m + n), dtype=np.float64)
    cost[:, :m] = np.where(w > 0, -w, 0.0)

    m_tot = m + n
    u = np.zeros(n + 1, dtype=np.float64)
    v = np.zeros(m_tot + 1, dtype=np.float64)
    p = np.zeros(m_tot + 1, dtype=np.int64)
    way = np.zeros(m_tot + 1, dtype=np.int64)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(m_tot + 1, np.inf, dtype=np.float64)
        used = np.zeros(m_tot + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            free = ~used[1:]
            cols = np.flatnonzero(free) + 1
            cur = cost[i0 - 1, cols - 1] - u[i0] - v[cols]
            better = cur < minv[cols]
            upd = cols[better]
            minv[upd] = cur[better]
            way[upd] = j0
            j1 = cols[np.argmin(minv[cols])]
            delta = minv[j1]
            used_cols = np.flatnonzero(used)
            u[p[used_cols]] += delta
            v[used_cols] -= delta
            minv[cols] -= delta
            j0 = int(j1)
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    pairs: list[tuple[int, int]] = []
    for j in range(1, m + 1):
        i = int(p[j])
        if i != 0 and w[i - 1, j - 1] > 0:
            pairs.append((i - 1, j - 1))
    pairs.sort()
    return pairs


def random_weight_matrix(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    w = rng.integers(1, 10, (n, m)).astype(float)
    w[rng.random((n, m)) < 0.5] = 0.0
    return w


class TestHungarianBasics:
    def test_empty_graph(self):
        g = WeightedBipartiteGraph()
        assert hungarian_matching(g).pairs == {}

    def test_no_edges(self):
        g = WeightedBipartiteGraph(left=[1], right=["a"])
        assert hungarian_matching(g).pairs == {}

    def test_prefers_heavy_edge(self):
        g = graph_from_matrix(np.array([[3.0, 0.0], [1.0, 0.0]]))
        r = hungarian_matching(g)
        assert r.pairs == {0: "c0"}
        assert r.total_weight == 3.0

    def test_perfect_matching(self):
        w = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = hungarian_matching(graph_from_matrix(w))
        assert r.pairs == {0: "c0", 1: "c1"}
        assert r.total_weight == 4.0

    def test_unmatched_left_allowed(self):
        # Two lefts compete for one right; heavier wins, other unmatched.
        w = np.array([[5.0], [2.0]])
        r = hungarian_matching(graph_from_matrix(w))
        assert r.pairs == {0: "c0"}

    def test_weight3_vs_two_weight1(self):
        # The RecodeOnJoin structure: one weight-3 edge beats... no,
        # loses to two weight-1+weight-3... here: u0-c0 w3 only, u1-c0
        # w1, u1-c1 w1: best is u0-c0 + u1-c1 = 4.
        w = np.array([[3.0, 0.0], [1.0, 1.0]])
        r = hungarian_matching(graph_from_matrix(w))
        assert r.total_weight == 4.0
        assert r.pairs == {0: "c0", 1: "c1"}

    def test_dense_solver_rectangular(self):
        pairs = solve_max_weight_dense(np.array([[1.0, 5.0, 2.0]]))
        assert pairs == [(0, 1)]


class TestHungarianAgainstScipy:
    @pytest.mark.parametrize("seed", range(40))
    def test_total_weight_matches(self, seed):
        w = random_weight_matrix(seed)
        g = graph_from_matrix(w)
        ours = hungarian_matching(g)
        oracle = scipy_matching(g)
        ours.validate_against(g)
        oracle.validate_against(g)
        assert ours.total_weight == pytest.approx(oracle.total_weight)

    @given(st.integers(0, 10_000))
    def test_property_random(self, seed):
        w = random_weight_matrix(seed)
        g = graph_from_matrix(w)
        ours = hungarian_matching(g)
        ours.validate_against(g)
        assert ours.total_weight == pytest.approx(scipy_matching(g).total_weight)


def tie_heavy_matrix(seed: int) -> np.ndarray:
    """Integer weights from {0, 1, 2, 3}: most optima are tied."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 41)), int(rng.integers(1, 49))
    return rng.integers(0, 4, (n, m)).astype(float)


def v1_weight_matrix(seed: int) -> np.ndarray:
    """A matrix built by Minim's weight formula (``solve_v1_assignment``)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 33))
    v1 = list(range(n))
    palette = int(rng.integers(1, 39))
    old = {u: (int(rng.integers(1, palette + 1)) if rng.random() < 0.9 else None) for u in v1}
    constraints = {
        u: {int(c) for c in rng.integers(1, palette + 1, int(rng.integers(0, 6)))} - {old[u]}
        for u in v1
    }
    constraints[v1[-1]].add(palette)  # pin the palette size
    return v1_weight_graph(v1, old, constraints).weight_matrix()


class TestOrderIdentity:
    """The scalar kernel returns the reference loop's pairs, ties included."""

    @pytest.mark.parametrize("seed", range(60))
    def test_tie_heavy_random(self, seed):
        w = tie_heavy_matrix(seed)
        assert solve_max_weight_dense(w) == _reference_jv(w)

    @pytest.mark.parametrize(
        "w",
        [
            np.zeros((1, 1)),
            np.ones((1, 1)),
            np.zeros((3, 0)),
            np.zeros((0, 4)),
            np.vstack([np.zeros((1, 5)), np.full((3, 5), 2.0)]),  # all-zero row
            np.hstack([np.full((4, 2), 1.0), np.zeros((4, 1)), np.full((4, 3), 1.0)]),
            np.full((40, 48), 3.0),
        ],
        ids=["zero-1x1", "one-1x1", "m=0", "n=0", "zero-row", "zero-col", "all-tied-40x48"],
    )
    def test_edge_shapes(self, w):
        assert solve_max_weight_dense(w) == _reference_jv(w)

    @pytest.mark.parametrize("seed", range(40))
    def test_minim_v1_weights(self, seed):
        w = v1_weight_matrix(seed)
        assert (w > 0).any()
        assert solve_max_weight_dense(w) == _reference_jv(w)

    @pytest.mark.parametrize("seed", range(10))
    def test_ndarray_and_row_list_agree(self, seed):
        w = tie_heavy_matrix(seed)
        rows = w.tolist()
        assert solve_max_weight_dense(rows) == solve_max_weight_dense(w) == _reference_jv(w)

    def test_integer_rows_accepted(self):
        rows = [[0, 2, 1], [3, 0, 0]]
        assert solve_max_weight_dense(rows) == _reference_jv(np.array(rows))

    @given(st.integers(0, 10_000))
    def test_property_tie_heavy(self, seed):
        w = tie_heavy_matrix(seed)
        assert solve_max_weight_dense(w) == _reference_jv(w)


class TestBackendDispatch:
    def test_hungarian_default(self):
        g = graph_from_matrix(np.array([[1.0]]))
        assert max_weight_matching(g).pairs == {0: "c0"}

    def test_scipy_backend(self):
        g = graph_from_matrix(np.array([[1.0]]))
        assert max_weight_matching(g, backend="scipy").pairs == {0: "c0"}

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            max_weight_matching(WeightedBipartiteGraph(), backend="nope")


class TestHopcroftKarp:
    def test_max_cardinality_simple(self):
        # 0-c0, 1-c0: cardinality 1. Adding 1-c1 makes it 2.
        w = np.array([[1.0, 0.0], [1.0, 1.0]])
        r = hopcroft_karp_matching(graph_from_matrix(w))
        assert r.cardinality == 2

    def test_augmenting_path_needed(self):
        # Classic: 0-{c0}, 1-{c0,c1}, 2-{c1}: perfect requires shifting.
        w = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        r = hopcroft_karp_matching(graph_from_matrix(w))
        assert r.cardinality == 3

    @pytest.mark.parametrize("seed", range(25))
    def test_cardinality_matches_networkx(self, seed):
        import networkx as nx

        w = random_weight_matrix(seed)
        g = graph_from_matrix(w)
        r = hopcroft_karp_matching(g)
        r_pairs = set(r.pairs.items())
        # networkx oracle
        b = nx.Graph()
        lefts = [("L", i) for i in range(w.shape[0])]
        b.add_nodes_from(lefts, bipartite=0)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                if w[i, j] > 0:
                    b.add_edge(("L", i), ("R", j))
        oracle = nx.bipartite.maximum_matching(b, top_nodes=lefts)
        assert r.cardinality == len(oracle) // 2
        # result is a valid matching
        assert len(set(r.pairs.values())) == len(r.pairs)
        for l, rr in r_pairs:
            assert g.has_edge(l, rr)

    @pytest.mark.parametrize("seed", range(25))
    def test_hungarian_cardinality_never_below_for_uniform_weights(self, seed):
        # With all weights 1, max weight == max cardinality.
        w = (random_weight_matrix(seed) > 0).astype(float)
        g = graph_from_matrix(w)
        assert (
            hungarian_matching(g).cardinality == hopcroft_karp_matching(g).cardinality
        )
