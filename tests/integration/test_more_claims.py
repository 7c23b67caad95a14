"""Additional paper-claim shape tests (transfer, JOAO, theory coupling)."""

import numpy as np
import pytest

from repro.core import gradgcl
from repro.datasets import load_molecule_dataset, load_pretrain_dataset, load_tu_dataset
from repro.gnn import GINEncoder
from repro.methods import GraphCL, JOAO
from repro.methods.transfer import finetune_roc_auc
from repro.run import GraphSteps, Trainer

# Hypothesis-heavy / end-to-end suite: deselected by CI tier (b)
# via -m 'not slow'; `make test-all` runs it.
pytestmark = pytest.mark.slow


class TestTransferClaim:
    def test_pretraining_helps_in_low_data_regime(self):
        # Table VI's premise, at test scale: in the low-finetune-data
        # regime a contrastively pretrained encoder beats a fresh one.
        pretrain = load_pretrain_dataset("ZINC-2M", scale="tiny", seed=0)
        downstream = load_molecule_dataset("BBBP", scale="small", seed=0)

        fresh = GINEncoder(pretrain.num_features, 16, 2,
                           rng=np.random.default_rng(0))
        model = GraphCL(pretrain.num_features, 16, 2,
                        rng=np.random.default_rng(0))
        Trainer(model, GraphSteps(pretrain.graphs, batch_size=32, seed=0),
                epochs=4, lr=3e-3).fit()

        def mean_auc(encoder):
            return np.mean([
                finetune_roc_auc(encoder, downstream, epochs=4, lr=3e-3,
                                 test_fraction=0.8, seed=s)
                for s in range(3)])

        assert mean_auc(model.encoder) > mean_auc(fresh) - 2.0


class TestJOAOClaim:
    def test_distribution_tracks_losses(self):
        # JOAO's min-max rule: the augmentation with the higher recorded
        # loss must get the higher probability after the epoch update.
        dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        method = JOAO(dataset.num_features, 8, 2,
                      rng=np.random.default_rng(0), gamma=0.05)
        method._loss_sums[:] = [4.0, 1.0, 1.0, 1.0]
        method._loss_counts[:] = 1.0
        method.on_epoch_end(0, 2.0)
        probs = method.augmentation_probabilities
        assert probs[0] == probs.max()
        assert probs.argmax() == 0

    def test_unseen_augmentations_keep_probability_mass(self):
        dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        method = JOAO(dataset.num_features, 8, 2,
                      rng=np.random.default_rng(0))
        method._loss_sums[:] = [2.0, 0.0, 0.0, 0.0]
        method._loss_counts[:] = [1.0, 0.0, 0.0, 0.0]
        method.on_epoch_end(0, 2.0)
        assert (method.augmentation_probabilities > 0).all()


class TestGradGCLCouplesChannels:
    def test_gradient_loss_reacts_to_representation_quality(self):
        # The combined objective's two parts must not be independent: on a
        # trained model, loss_g is far below its value at initialization
        # (the gradient channel reflects the optimized representations).
        dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        from repro.graph import GraphBatch

        def parts_after(epochs):
            method = gradgcl(GraphCL(dataset.num_features, 8, 2,
                                     rng=np.random.default_rng(0)), 0.5)
            if epochs:
                Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                           seed=0), epochs=epochs).fit()
            method._rng = np.random.default_rng(9)
            method.training_loss(GraphBatch(dataset.graphs[:16]))
            return dict(method.objective.last_parts)

        initial = parts_after(0)
        trained = parts_after(6)
        assert trained["loss_g"] < initial["loss_g"]
