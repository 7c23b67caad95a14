"""Graph-level methods: smoke training, loss decrease, GradGCL plug-in."""

import numpy as np
import pytest

from repro.core import gradgcl
from repro.datasets import load_tu_dataset
from repro.graph import GraphBatch
from repro.methods import GraphCL, GraphMAE, InfoGraph, JOAO, MVGRL, SimGRACE
from repro.run import GraphSteps, Trainer

GRAPH_METHODS = [GraphCL, JOAO, SimGRACE, InfoGraph, MVGRL, GraphMAE]


@pytest.fixture(scope="module")
def dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


def build(cls, dataset, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    return cls(dataset.num_features, 8, 2, rng=rng, **kwargs)


class TestTrainingSmoke:
    @pytest.mark.parametrize("cls", GRAPH_METHODS)
    def test_loss_finite_and_decreases(self, dataset, cls):
        method = build(cls, dataset)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=4, lr=3e-3).fit()
        assert all(np.isfinite(history.losses))
        assert history.losses[-1] <= history.losses[0] + 0.1

    @pytest.mark.parametrize("cls", GRAPH_METHODS)
    def test_embeddings_shape_and_finite(self, dataset, cls):
        method = build(cls, dataset)
        emb = method.embed(dataset.graphs)
        assert emb.shape[0] == len(dataset)
        assert np.isfinite(emb).all()

    @pytest.mark.parametrize("cls", GRAPH_METHODS)
    def test_gradgcl_full_pipeline(self, dataset, cls):
        method = gradgcl(build(cls, dataset), weight=0.5)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=2).fit()
        assert all(np.isfinite(history.losses))

    @pytest.mark.parametrize("cls", [GraphCL, SimGRACE])
    def test_gradient_only_trains(self, dataset, cls):
        # a = 1: the gradient channel alone must move the parameters.
        method = gradgcl(build(cls, dataset), weight=1.0)
        before = method.encoder.state_dict()
        Trainer(method, GraphSteps(dataset.graphs, batch_size=16, seed=0),
                epochs=1).fit()
        after = method.encoder.state_dict()
        moved = any(not np.allclose(before[k], after[k]) for k in before)
        assert moved

    def test_weight_zero_matches_unwrapped(self, dataset):
        # GradGCL at a=0 computes exactly the base loss.
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        a = GraphCL(dataset.num_features, 8, 2, rng=rng_a)
        b = gradgcl(GraphCL(dataset.num_features, 8, 2, rng=rng_b), 0.0)
        batch = GraphBatch(dataset.graphs[:16])
        la = a.training_loss(batch).item()
        lb = b.training_loss(batch).item()
        np.testing.assert_allclose(la, lb, atol=1e-10)


class TestMethodSpecifics:
    def test_simgrace_perturbed_branch_not_trained(self, dataset):
        method = build(SimGRACE, dataset)
        batch = GraphBatch(dataset.graphs[:12])
        loss = method.training_loss(batch)
        loss.backward()
        # Encoder receives gradient only through the un-perturbed branch;
        # this just asserts it receives one at all.
        grads = [p.grad for p in method.encoder.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_joao_updates_probabilities(self, dataset):
        method = build(JOAO, dataset)
        initial = method.augmentation_probabilities
        Trainer(method, GraphSteps(dataset.graphs, batch_size=16, seed=0),
                epochs=2).fit()
        updated = method.augmentation_probabilities
        assert not np.allclose(initial, updated)
        np.testing.assert_allclose(updated.sum(), 1.0)

    def test_joao_gamma_validation(self, dataset):
        with pytest.raises(ValueError):
            build(JOAO, dataset, gamma=0.0)

    def test_infograph_subsamples_nodes(self, dataset):
        rng = np.random.default_rng(0)
        method = InfoGraph(dataset.num_features, 8, 2, rng=rng,
                           max_nodes_per_step=10)
        batch = GraphBatch(dataset.graphs[:8])
        loss = method.training_loss(batch)
        assert np.isfinite(loss.item())

    def test_mvgrl_embedding_concatenates_views(self, dataset):
        method = build(MVGRL, dataset)
        emb = method.embed(dataset.graphs[:5])
        # hidden_dim per view, two views.
        assert emb.shape == (5, 16)

    def test_graphmae_mask_ratio_validation(self, dataset):
        with pytest.raises(ValueError):
            build(GraphMAE, dataset, mask_ratio=0.0)

    def test_graphmae_reconstruction_improves(self, dataset):
        method = build(GraphMAE, dataset)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=32,
                                             seed=0), epochs=6, lr=3e-3).fit()
        assert history.losses[-1] < history.losses[0]


class TestTrainerContract:
    def test_history_fields(self, dataset):
        method = gradgcl(build(GraphCL, dataset), 0.5)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=3).fit()
        assert len(history.losses) == 3
        assert len(history.epoch_seconds) == 3
        assert history.total_seconds > 0
        # GradGCL parts logged.
        assert set(history.parts[0]) == {"loss_f", "loss_g"}

    def test_probe_called_per_epoch(self, dataset):
        method = build(GraphCL, dataset)
        history = Trainer(
            method, GraphSteps(dataset.graphs, batch_size=16, seed=0),
            epochs=2,
            probe=lambda m: {"norm": float(np.abs(
                m.encoder.parameters()[0].data).sum())}).fit()
        assert len(history.probes) == 2
        assert "norm" in history.probes[0]

    def test_epochs_validation(self, dataset):
        method = build(GraphCL, dataset)
        with pytest.raises(ValueError):
            Trainer(method, GraphSteps(dataset.graphs), epochs=0).fit()
