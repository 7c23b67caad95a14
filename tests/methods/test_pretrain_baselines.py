"""AttrMasking and ContextPred pretraining baselines (Table VI rows)."""

import numpy as np
import pytest

from repro.datasets import load_molecule_dataset, load_pretrain_dataset
from repro.graph import Graph, GraphBatch
from repro.methods import AttrMasking, ContextPred, finetune_roc_auc
from repro.run import GraphSteps, Trainer


@pytest.fixture(scope="module")
def pretrain():
    return load_pretrain_dataset("ZINC-2M", scale="tiny", seed=0)


class TestAttrMasking:
    def test_loss_decreases(self, pretrain):
        rng = np.random.default_rng(0)
        method = AttrMasking(pretrain.num_features, 16, 2, rng=rng)
        history = Trainer(method, GraphSteps(pretrain.graphs, batch_size=32,
                                             seed=0), epochs=4, lr=3e-3).fit()
        assert history.losses[-1] < history.losses[0]

    def test_loss_below_uniform_after_training(self, pretrain):
        # Uniform prediction over atom types gives loss log(num_types);
        # learning the masked types must beat that.
        rng = np.random.default_rng(0)
        method = AttrMasking(pretrain.num_features, 16, 2, rng=rng)
        history = Trainer(method, GraphSteps(pretrain.graphs, batch_size=32,
                                             seed=0), epochs=6, lr=3e-3).fit()
        assert history.losses[-1] < np.log(pretrain.num_features)

    def test_mask_ratio_validation(self, pretrain):
        with pytest.raises(ValueError):
            AttrMasking(pretrain.num_features, 8, 2,
                        rng=np.random.default_rng(0), mask_ratio=0.0)

    def test_encoder_transfers(self, pretrain):
        rng = np.random.default_rng(0)
        method = AttrMasking(pretrain.num_features, 16, 2, rng=rng)
        Trainer(method, GraphSteps(pretrain.graphs, batch_size=32, seed=0),
                epochs=3, lr=3e-3).fit()
        downstream = load_molecule_dataset("BBBP", scale="tiny", seed=0)
        auc = finetune_roc_auc(method.encoder, downstream, epochs=5,
                               lr=3e-3, seed=0)
        assert 0.0 <= auc <= 100.0


class TestContextPred:
    def test_loss_decreases(self, pretrain):
        rng = np.random.default_rng(0)
        method = ContextPred(pretrain.num_features, 16, 2, rng=rng)
        history = Trainer(method, GraphSteps(pretrain.graphs, batch_size=32,
                                             seed=0), epochs=4, lr=3e-3).fit()
        assert history.losses[-1] < history.losses[0]

    def test_loss_below_chance(self, pretrain):
        # Chance discrimination (all scores 0) costs 2 * log(2) ~ 1.386;
        # training must get below it.
        rng = np.random.default_rng(0)
        method = ContextPred(pretrain.num_features, 16, 2, rng=rng)
        history = Trainer(method, GraphSteps(pretrain.graphs, batch_size=32,
                                             seed=0), epochs=12, lr=1e-2).fit()
        assert history.losses[-1] < 2.0 * np.log(2.0)

    def test_rejects_edgeless_batch(self):
        rng = np.random.default_rng(0)
        method = ContextPred(3, 8, 2, rng=rng)
        batch = GraphBatch([Graph(3, np.empty((0, 2)), np.eye(3)),
                            Graph(2, np.empty((0, 2)), np.eye(3)[:2])])
        with pytest.raises(ValueError, match="at least one edge"):
            method.training_loss(batch)

    def test_embeddings_shape(self, pretrain):
        rng = np.random.default_rng(0)
        method = ContextPred(pretrain.num_features, 16, 2, rng=rng)
        emb = method.embed(pretrain.graphs[:5])
        assert emb.shape == (5, 32)
