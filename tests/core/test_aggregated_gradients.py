"""The neighbourhood-aggregated gradient extension (paper future work)."""

import numpy as np
import pytest

from repro.core import aggregate_gradient_features, gradgcl
from repro.datasets import load_node_dataset
from repro.graph import Graph, adjacency_matrix, row_normalize
from repro.methods import GRACE
from repro.run import NodeSteps, Trainer
from repro.tensor import Tensor


@pytest.fixture
def path_graph():
    return Graph(4, [[0, 1], [1, 2], [2, 3]], np.eye(4))


class TestAggregation:
    def test_matches_manual_operator(self, path_graph):
        rng = np.random.default_rng(0)
        g = Tensor(rng.normal(size=(4, 3)))
        out = aggregate_gradient_features(g, path_graph)
        operator = row_normalize(
            adjacency_matrix(path_graph, self_loops=True)).toarray()
        np.testing.assert_allclose(out.data, operator @ g.data, atol=1e-12)

    def test_isolated_node_keeps_own_gradient(self):
        g = Graph(3, [[0, 1]], np.eye(3))
        feats = Tensor(np.arange(6.0).reshape(3, 2))
        out = aggregate_gradient_features(feats, g)
        # Node 2 has only its self loop.
        np.testing.assert_allclose(out.data[2], feats.data[2])

    def test_smoothing_reduces_variance(self):
        # Aggregation over a dense graph averages towards the mean.
        rng = np.random.default_rng(1)
        n = 12
        iu = np.triu_indices(n, k=1)
        g = Graph(n, np.stack(iu, axis=1), np.eye(n))
        feats = Tensor(rng.normal(size=(n, 4)))
        out = aggregate_gradient_features(feats, g)
        assert out.data.std() < feats.data.std()

    def test_differentiable(self, path_graph):
        g = Tensor(np.ones((4, 2)), requires_grad=True)
        aggregate_gradient_features(g, path_graph).sum().backward()
        assert g.grad is not None


class TestGRACEExtension:
    def test_trains_with_aggregated_gradients(self):
        ds = load_node_dataset("Cora", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = GRACE(ds.num_features, 16, 8, rng=rng,
                       aggregate_gradients=True, max_anchors=64)
        method = gradgcl(method, 0.5)
        history = Trainer(method, NodeSteps(ds.graph), epochs=3, lr=3e-3).fit()
        assert all(np.isfinite(history.losses))

    def test_flag_ignored_without_gradgcl(self):
        ds = load_node_dataset("Cora", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = GRACE(ds.num_features, 16, 8, rng=rng,
                       aggregate_gradients=True)
        history = Trainer(method, NodeSteps(ds.graph), epochs=2, lr=3e-3).fit()
        assert all(np.isfinite(history.losses))

    def test_weight_zero_matches_plain_base(self):
        # With a=0 the aggregated path computes only the base loss.
        ds = load_node_dataset("Cora", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = GRACE(ds.num_features, 16, 8, rng=rng,
                       aggregate_gradients=True)
        method = gradgcl(method, 0.0)
        loss = method.training_loss(ds.graph)
        assert np.isfinite(loss.item())
