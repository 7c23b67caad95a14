"""Batching, adjacency normalization, diffusion, and loaders."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import (
    Graph,
    GraphBatch,
    GraphLoader,
    adjacency_matrix,
    gcn_normalize,
    heat_diffusion,
    ppr_diffusion,
    row_normalize,
    sparsify_top_k,
)


@pytest.fixture
def graphs():
    rng = np.random.default_rng(0)
    return [
        Graph(3, [[0, 1], [1, 2]], rng.normal(size=(3, 4)), y=0),
        Graph(2, [[0, 1]], rng.normal(size=(2, 4)), y=1),
        Graph(4, [[0, 1], [2, 3]], rng.normal(size=(4, 4)), y=0),
    ]


class TestAdjacency:
    def test_symmetric(self, graphs):
        adj = adjacency_matrix(graphs[0])
        assert (adj != adj.T).nnz == 0
        assert adj.sum() == 2 * graphs[0].num_edges

    def test_gcn_normalization_rows(self, graphs):
        norm = gcn_normalize(adjacency_matrix(graphs[0]))
        # Known closed form for a path graph 0-1-2 with self loops.
        dense = norm.toarray()
        np.testing.assert_allclose(dense[0, 0], 0.5)
        np.testing.assert_allclose(dense[0, 1], 1 / np.sqrt(6))

    def test_row_normalize_stochastic(self, graphs):
        norm = row_normalize(adjacency_matrix(graphs[0], self_loops=True))
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), 1.0)

    def test_isolated_node_safe(self):
        g = Graph(3, [[0, 1]], np.eye(3))
        norm = gcn_normalize(adjacency_matrix(g))
        assert np.isfinite(norm.toarray()).all()

    @pytest.mark.parametrize("normalize", [
        row_normalize, lambda adj: gcn_normalize(adj, self_loops=False)],
        ids=["row", "gcn-no-self-loops"])
    def test_isolated_node_normalizes_without_warning(self, normalize):
        # Node 2 has degree 0: its row stays zero, and inverting the
        # degrees must not divide by zero on the way.
        g = Graph(4, [[0, 1], [1, 3]], np.eye(4))
        adj = adjacency_matrix(g)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dense = normalize(adj).toarray()
        degrees = np.array([1.0, 2.0, 0.0, 1.0])
        assert not dense[2].any() and not dense[:, 2].any()
        connected = [0, 1, 3]
        block = adj.toarray()[np.ix_(connected, connected)]
        inv = 1.0 / degrees[connected]
        expected = (inv[:, None] * block if normalize is row_normalize
                    else np.sqrt(inv)[:, None] * block * np.sqrt(inv))
        np.testing.assert_allclose(dense[np.ix_(connected, connected)],
                                   expected)


class TestBatch:
    def test_offsets_and_sizes(self, graphs):
        batch = GraphBatch(graphs)
        assert batch.num_graphs == 3
        assert batch.num_nodes == 9
        np.testing.assert_array_equal(batch.node_offsets, [0, 3, 5, 9])
        np.testing.assert_array_equal(batch.graph_sizes(), [3, 2, 4])

    def test_node_to_graph(self, graphs):
        batch = GraphBatch(graphs)
        np.testing.assert_array_equal(batch.node_to_graph,
                                      [0, 0, 0, 1, 1, 2, 2, 2, 2])

    def test_edges_offset(self, graphs):
        batch = GraphBatch(graphs)
        expected = {(0, 1), (1, 2), (3, 4), (5, 6), (7, 8)}
        assert {tuple(e) for e in batch.edges} == expected

    def test_block_diagonal_adjacency(self, graphs):
        batch = GraphBatch(graphs)
        adj = batch.adjacency("none").toarray()
        # No cross-graph edges.
        assert adj[0:3, 3:].sum() == 0
        assert adj[3:5, 5:].sum() == 0

    def test_adjacency_cache(self, graphs):
        batch = GraphBatch(graphs)
        assert batch.adjacency("gcn") is batch.adjacency("gcn")

    def test_labels(self, graphs):
        batch = GraphBatch(graphs)
        np.testing.assert_array_equal(batch.labels, [0, 1, 0])

    def test_unknown_normalization(self, graphs):
        with pytest.raises(ValueError):
            GraphBatch(graphs).adjacency("bogus")

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            GraphBatch([])


class TestLoader:
    def test_covers_all_graphs(self, graphs):
        loader = GraphLoader(graphs, batch_size=2,
                             rng=np.random.default_rng(0))
        seen = sum(batch.num_graphs for batch in loader)
        assert seen == 3
        assert len(loader) == 2

    def test_shuffle_changes_order(self, graphs):
        many = graphs * 10
        loader = GraphLoader(many, batch_size=30, shuffle=True,
                             rng=np.random.default_rng(0))
        first = next(iter(loader)).labels
        second = next(iter(loader)).labels
        assert not np.array_equal(first, second)

    def test_no_shuffle_deterministic(self, graphs):
        loader = GraphLoader(graphs, batch_size=3, shuffle=False)
        batch = next(iter(loader))
        np.testing.assert_array_equal(batch.labels, [0, 1, 0])


class TestDiffusion:
    def test_ppr_rows_near_stochastic(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3], [0, 3]], np.eye(4))
        diff = ppr_diffusion(g, alpha=0.2)
        assert diff.shape == (4, 4)
        assert (diff >= -1e-9).all()

    def test_ppr_identity_limit(self):
        # alpha -> 1 recovers (nearly) the identity.
        g = Graph(3, [[0, 1], [1, 2]], np.eye(3))
        diff = ppr_diffusion(g, alpha=0.999)
        np.testing.assert_allclose(diff, np.eye(3), atol=5e-3)

    def test_ppr_solve_matches_explicit_inverse(self):
        # The LU-solve formulation must agree with the textbook closed
        # form ``a (I - (1-a) A_sym)^-1`` to machine precision.
        rng = np.random.default_rng(4)
        n = 12
        edges = np.unique(np.sort(rng.integers(0, n, size=(30, 2)), axis=1),
                          axis=0)
        edges = edges[edges[:, 0] != edges[:, 1]]
        g = Graph(n, edges, np.eye(n))
        alpha = 0.15
        adj = gcn_normalize(adjacency_matrix(g)).toarray()
        explicit = alpha * np.linalg.inv(np.eye(n) - (1 - alpha) * adj)
        np.testing.assert_allclose(ppr_diffusion(g, alpha=alpha), explicit,
                                   atol=1e-12)

    def test_ppr_alpha_validation(self):
        g = Graph(2, [[0, 1]], np.eye(2))
        with pytest.raises(ValueError):
            ppr_diffusion(g, alpha=0.0)

    def test_heat_diffusion_finite(self):
        g = Graph(4, [[0, 1], [1, 2], [2, 3]], np.eye(4))
        diff = heat_diffusion(g, t=2.0)
        assert np.isfinite(diff).all()

    def test_sparsify_top_k(self):
        dense = np.array([[0.5, 0.3, 0.2], [0.1, 0.8, 0.1],
                          [0.2, 0.2, 0.6]])
        sparse = sparsify_top_k(dense, k=2)
        assert isinstance(sparse, sp.csr_matrix)
        assert (sparse.toarray() > 0).sum(axis=1).max() <= 2
        np.testing.assert_allclose(np.asarray(sparse.sum(axis=1)).ravel(),
                                   1.0)
