"""Tests for the bipartite graph model."""

import pytest

from repro.errors import MatchingError
from repro.matching.bipartite import MatchingResult, WeightedBipartiteGraph


@pytest.fixture
def graph():
    g = WeightedBipartiteGraph(left=["a", "b"], right=[1, 2, 3])
    g.add_edge("a", 1, 3.0)
    g.add_edge("b", 1, 1.0)
    g.add_edge("b", 2, 1.0)
    return g


class TestConstruction:
    def test_duplicate_left_rejected(self):
        with pytest.raises(MatchingError):
            WeightedBipartiteGraph(left=["a", "a"], right=[1])

    def test_duplicate_right_rejected(self):
        with pytest.raises(MatchingError):
            WeightedBipartiteGraph(left=["a"], right=[1, 1])

    def test_add_vertices(self):
        g = WeightedBipartiteGraph()
        g.add_left("x")
        g.add_right(9)
        g.add_edge("x", 9, 2.0)
        assert g.has_edge("x", 9)
        with pytest.raises(MatchingError):
            g.add_left("x")
        with pytest.raises(MatchingError):
            g.add_right(9)


class TestEdges:
    def test_weight_lookup(self, graph):
        assert graph.weight("a", 1) == 3.0
        assert graph.weight("a", 2) is None

    def test_nonpositive_weight_rejected(self, graph):
        with pytest.raises(MatchingError):
            graph.add_edge("a", 2, 0.0)
        with pytest.raises(MatchingError):
            graph.add_edge("a", 2, -1.0)

    def test_unknown_endpoints_rejected(self, graph):
        with pytest.raises(MatchingError):
            graph.add_edge("zz", 1, 1.0)
        with pytest.raises(MatchingError):
            graph.add_edge("a", 99, 1.0)

    def test_weight_matrix(self, graph):
        m = graph.weight_matrix()
        assert m.shape == (2, 3)
        assert m[0, 0] == 3.0 and m[1, 0] == 1.0 and m[1, 1] == 1.0
        assert m[0, 1] == 0.0  # forbidden marked 0

    def test_edge_count(self, graph):
        assert graph.edge_count() == 3
        assert len(list(graph.edges())) == 3


    def test_edges_are_row_major(self):
        g = WeightedBipartiteGraph(left=["a", "b"], right=[1, 2])
        g.add_edge("b", 1, 1.0)
        g.add_edge("a", 2, 2.0)
        assert g.edges() == [("a", 2, 2.0), ("b", 1, 1.0)]

    def test_vertices_added_after_edges_start_empty(self, graph):
        graph.add_left("c")
        graph.add_right(4)
        assert graph.weight_rows() == [[3.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0] * 4]
        graph.add_edge("c", 4, 5.0)
        assert graph.weight("c", 4) == 5.0 and graph.edge_count() == 4


class TestFromRows:
    def test_rows_are_the_storage(self):
        rows = [[3.0, 0.0], [1.0, 1.0]]
        g = WeightedBipartiteGraph.from_rows(["a", "b"], range(1, 3), rows)
        assert g.weight_rows() is rows
        assert g.right == [1, 2]
        assert g.weight("a", 1) == 3.0 and not g.has_edge("a", 2)
        assert g.weight("zz", 1) is None
        assert g.edge_count() == 3
        assert g.weight_matrix().tolist() == rows

    def test_negative_entry_rejected(self):
        with pytest.raises(MatchingError, match="positive"):
            WeightedBipartiteGraph.from_rows(["a"], [1, 2], [[1.0, -2.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MatchingError, match="rows"):
            WeightedBipartiteGraph.from_rows(["a", "b"], [1], [[1.0]])
        with pytest.raises(MatchingError, match="length"):
            WeightedBipartiteGraph.from_rows(["a"], [1, 2], [[1.0]])

    def test_duplicates_rejected(self):
        with pytest.raises(MatchingError):
            WeightedBipartiteGraph.from_rows(["a", "a"], [1], [[1.0], [1.0]])

    def test_empty(self):
        g = WeightedBipartiteGraph.from_rows([], [1, 2], [])
        assert g.weight_matrix().shape == (0, 2) and g.edges() == []


class TestMatchingResult:
    def test_validate_ok(self, graph):
        r = MatchingResult(pairs={"a": 1, "b": 2}, total_weight=4.0)
        r.validate_against(graph)

    def test_validate_rejects_non_edge(self, graph):
        r = MatchingResult(pairs={"a": 2}, total_weight=1.0)
        with pytest.raises(MatchingError, match="not an edge"):
            r.validate_against(graph)

    def test_validate_rejects_shared_right(self, graph):
        r = MatchingResult(pairs={"a": 1, "b": 1}, total_weight=4.0)
        with pytest.raises(MatchingError, match="twice"):
            r.validate_against(graph)

    def test_validate_rejects_wrong_weight(self, graph):
        r = MatchingResult(pairs={"a": 1}, total_weight=99.0)
        with pytest.raises(MatchingError, match="inconsistent"):
            r.validate_against(graph)

    def test_cardinality(self):
        assert MatchingResult(pairs={"a": 1, "b": 2}, total_weight=0.0).cardinality == 2
