"""RGCL: saliency-based rationale discovery and preserving augmentation."""

import numpy as np
import pytest

from repro.core import gradgcl
from repro.datasets import load_tu_dataset
from repro.graph import GraphBatch
from repro.methods import RGCL
from repro.run import GraphSteps, Trainer


@pytest.fixture(scope="module")
def dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


def build(dataset, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return RGCL(dataset.num_features, 8, 2, rng=rng, **kwargs)


class TestSaliency:
    def test_shape_and_nonnegative(self, dataset):
        method = build(dataset)
        batch = GraphBatch(dataset.graphs[:8])
        saliency = method.node_saliency(batch)
        assert saliency.shape == (batch.num_nodes,)
        assert (saliency >= 0).all()

    def test_clears_parameter_gradients(self, dataset):
        method = build(dataset)
        batch = GraphBatch(dataset.graphs[:8])
        method.node_saliency(batch)
        assert all(p.grad is None for p in method.parameters())

    def test_rationale_mask_sizes(self, dataset):
        method = build(dataset, rationale_ratio=0.3)
        batch = GraphBatch(dataset.graphs[:6])
        masks = method._rationale_masks(batch)
        for graph, mask in zip(batch.graphs, masks):
            expected = max(1, int(round(graph.num_nodes * 0.3)))
            assert mask.sum() == expected


class TestAugmentation:
    def test_rationale_nodes_survive(self, dataset):
        method = build(dataset, drop_ratio=0.5)
        graph = dataset.graphs[0]
        rationale = np.zeros(graph.num_nodes, dtype=bool)
        rationale[:3] = True
        out = method._augment_preserving(graph, rationale)
        # Rationale features are preserved verbatim in the view.
        kept_rows = {tuple(row) for row in out.x}
        for row in graph.x[:3]:
            assert tuple(row) in kept_rows

    def test_drop_only_environment(self, dataset):
        method = build(dataset, drop_ratio=0.5)
        graph = dataset.graphs[0]
        rationale = np.ones(graph.num_nodes, dtype=bool)
        out = method._augment_preserving(graph, rationale)
        assert out.num_nodes == graph.num_nodes  # nothing to drop


class TestTraining:
    def test_loss_finite(self, dataset):
        method = build(dataset)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=2).fit()
        assert all(np.isfinite(history.losses))

    def test_gradgcl_wrapping(self, dataset):
        method = gradgcl(build(dataset), 0.5)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=1).fit()
        assert all(np.isfinite(history.losses))

    def test_embeddings(self, dataset):
        method = build(dataset)
        emb = method.embed(dataset.graphs[:5])
        assert emb.shape == (5, 16)

    def test_validation(self, dataset):
        with pytest.raises(ValueError, match="rationale_ratio"):
            build(dataset, rationale_ratio=0.0)
        with pytest.raises(ValueError, match="drop_ratio"):
            build(dataset, drop_ratio=1.0)
