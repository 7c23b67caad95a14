"""Graph container invariants: edges, degrees, subgraphs, conversion."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import Graph


@pytest.fixture
def triangle():
    return Graph(3, [[0, 1], [1, 2], [0, 2]], np.eye(3), y=1)


class TestConstruction:
    def test_basic_properties(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3
        assert triangle.num_features == 3
        assert triangle.y == 1

    def test_rejects_feature_mismatch(self):
        with pytest.raises(ValueError, match="feature rows"):
            Graph(3, [[0, 1]], np.eye(2))

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [[0, 5]], np.eye(2))

    def test_rejects_negative_edge_endpoints(self):
        # Regression: -1 silently wrapped to the last node via numpy
        # indexing instead of being rejected like an oversized endpoint.
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [[-1, 1]], np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        x = np.ones((3, 2))
        x[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Graph(3, np.array([[0, 1]]), x)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self loops"):
            Graph(2, [[1, 1]], np.eye(2))

    def test_empty_edges(self):
        g = Graph(3, np.empty((0, 2)), np.eye(3))
        assert g.num_edges == 0
        np.testing.assert_array_equal(g.degrees(), [0, 0, 0])


class TestCanonicalEdges:
    def test_dedup_and_order(self):
        edges = Graph.canonical_edges(np.array([[1, 0], [0, 1], [2, 1]]))
        np.testing.assert_array_equal(edges, [[0, 1], [1, 2]])

    def test_removes_self_loops(self):
        edges = Graph.canonical_edges(np.array([[0, 0], [0, 1]]))
        np.testing.assert_array_equal(edges, [[0, 1]])

    def test_empty(self):
        assert Graph.canonical_edges(np.empty((0, 2))).size == 0


class TestDegreesAndSets:
    def test_degrees(self, triangle):
        np.testing.assert_array_equal(triangle.degrees(), [2, 2, 2])

    def test_edge_set(self, triangle):
        assert triangle.edge_set() == {(0, 1), (1, 2), (0, 2)}

    def test_copy_is_deep(self, triangle):
        clone = triangle.copy()
        clone.x[0, 0] = 99.0
        clone.edges[0, 0] = 2
        assert triangle.x[0, 0] == 1.0
        assert triangle.edges[0, 0] == 0


class TestSubgraph:
    def test_induced_edges(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]], np.arange(8.0).reshape(4, 2))
        sub = g.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.edge_set() == {(0, 1), (1, 2)}
        np.testing.assert_array_equal(sub.x, g.x[:3])

    def test_relabelling(self):
        g = Graph(4, [[2, 3]], np.eye(4))
        sub = g.subgraph(np.array([2, 3]))
        assert sub.edge_set() == {(0, 1)}

    def test_preserves_node_labels(self):
        g = Graph(3, [[0, 1]], np.eye(3))
        g.node_y = np.array([7, 8, 9])
        sub = g.subgraph(np.array([0, 2]))
        np.testing.assert_array_equal(sub.node_y, [7, 9])


class TestNetworkxRoundTrip:
    def test_from_networkx(self):
        nxg = nx.cycle_graph(5)
        g = Graph.from_networkx(nxg, y=0)
        assert g.num_nodes == 5
        assert g.num_edges == 5
        # Degree features normalized to [0, 1].
        assert g.x.shape == (5, 1)
        assert g.x.max() <= 1.0

    def test_to_networkx(self, triangle):
        nxg = triangle.to_networkx()
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 3

    def test_roundtrip_preserves_structure(self):
        nxg = nx.barbell_graph(4, 2)
        g = Graph.from_networkx(nxg)
        back = g.to_networkx()
        assert nx.is_isomorphic(nxg, back)
