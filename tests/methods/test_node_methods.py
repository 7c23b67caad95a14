"""Node-level methods: smoke training, EMA/stop-grad semantics, GradGCL."""

import numpy as np
import pytest

from repro.core import gradgcl
from repro.datasets import load_node_dataset
from repro.eval import evaluate_node_embeddings
from repro.methods import BGRL, COSTA, DGI, GCA, GRACE, MVGRLNode, SGCL
from repro.run import NodeSteps, Trainer

NODE_METHODS = [GRACE, GCA, BGRL, SGCL, COSTA, MVGRLNode, DGI]


@pytest.fixture(scope="module")
def dataset():
    return load_node_dataset("Cora", scale="tiny", seed=0)


def build(cls, dataset, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    if cls is MVGRLNode:
        return MVGRLNode(dataset.num_features, 16, rng=rng, **kwargs)
    return cls(dataset.num_features, 16, 8, rng=rng, **kwargs)


class TestTrainingSmoke:
    @pytest.mark.parametrize("cls", NODE_METHODS)
    def test_loss_finite(self, dataset, cls):
        method = build(cls, dataset)
        history = Trainer(method, NodeSteps(dataset.graph), epochs=3,
                          lr=3e-3).fit()
        assert all(np.isfinite(history.losses))

    @pytest.mark.parametrize("cls", NODE_METHODS)
    def test_embeddings_shape(self, dataset, cls):
        method = build(cls, dataset)
        emb = method.embed(dataset.graph)
        assert emb.shape[0] == dataset.num_nodes
        assert np.isfinite(emb).all()

    @pytest.mark.parametrize("cls", NODE_METHODS)
    def test_gradgcl_wrapping(self, dataset, cls):
        method = gradgcl(build(cls, dataset), weight=0.5)
        history = Trainer(method, NodeSteps(dataset.graph), epochs=2,
                          lr=3e-3).fit()
        assert all(np.isfinite(history.losses))

    def test_embeddings_beat_chance_after_training(self, dataset):
        method = build(GRACE, dataset, seed=1)
        Trainer(method, NodeSteps(dataset.graph), epochs=10, lr=3e-3).fit()
        emb = method.embed(dataset.graph)
        acc, _ = evaluate_node_embeddings(emb, dataset.labels(),
                                          dataset.train_mask,
                                          dataset.test_mask, repeats=1)
        chance = 100.0 / dataset.num_classes
        assert acc > chance + 5.0


class TestBootstrapSemantics:
    def test_bgrl_target_updates_by_ema(self, dataset):
        method = build(BGRL, dataset)
        before = method.target_encoder.state_dict()
        Trainer(method, NodeSteps(dataset.graph), epochs=2, lr=1e-2).fit()
        after = method.target_encoder.state_dict()
        changed = any(not np.allclose(before[k], after[k]) for k in before)
        assert changed

    def test_bgrl_ema_is_slow(self, dataset):
        method = build(BGRL, dataset, momentum=0.99)
        online_before = method.encoder.state_dict()
        target_before = method.target_encoder.state_dict()
        Trainer(method, NodeSteps(dataset.graph), epochs=1, lr=1e-2).fit()
        online_delta = sum(
            np.abs(method.encoder.state_dict()[k] - online_before[k]).sum()
            for k in online_before)
        target_delta = sum(
            np.abs(method.target_encoder.state_dict()[k]
                   - target_before[k]).sum()
            for k in target_before)
        assert target_delta < online_delta

    def test_bgrl_momentum_validation(self, dataset):
        with pytest.raises(ValueError):
            build(BGRL, dataset, momentum=1.0)

    def test_sgcl_has_no_ema(self, dataset):
        method = build(SGCL, dataset)
        before = method.target_encoder.state_dict()
        Trainer(method, NodeSteps(dataset.graph), epochs=2, lr=1e-2).fit()
        after = method.target_encoder.state_dict()
        # SGCL never touches the (unused) target encoder.
        assert all(np.allclose(before[k], after[k]) for k in before)


class TestAnchorSubsampling:
    def test_grace_caps_anchor_count(self, dataset):
        method = build(GRACE, dataset, max_anchors=16)
        u, v = method.project_views(dataset.graph)
        assert len(u) == 16 and len(v) == 16

    def test_costa_sketch_preserves_shape(self, dataset):
        method = build(COSTA, dataset, max_anchors=32)
        u, v = method.project_views(dataset.graph)
        assert u.shape == v.shape
