"""Trainer hardening: clipping, early stopping, non-finite guards."""

import numpy as np
import pytest

from repro.datasets import load_tu_dataset
from repro.methods import GraphCL
from repro.nn import Parameter
from repro.run import GraphSteps, Trainer, clip_gradients
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


class TestClipGradients:
    def test_clips_above_threshold(self):
        p = Parameter(np.zeros(4))
        p.grad = np.array([3.0, 0.0, 4.0, 0.0])  # norm 5
        norm = clip_gradients([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 1.0, atol=1e-9)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.3, 0.4])  # norm 0.5
        clip_gradients([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, [0.3, 0.4])

    def test_skips_missing_gradients(self):
        p = Parameter(np.zeros(2))
        assert clip_gradients([p], max_norm=1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            clip_gradients([], max_norm=0.0)

    def test_global_norm_across_parameters(self):
        a, b = Parameter(np.zeros(1)), Parameter(np.zeros(1))
        a.grad, b.grad = np.array([3.0]), np.array([4.0])
        clip_gradients([a, b], max_norm=1.0)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)


class TestEarlyStopping:
    def test_stops_on_plateau(self, dataset):
        rng = np.random.default_rng(0)
        method = GraphCL(dataset.num_features, 8, 2, rng=rng)
        # Huge min_delta means "never improves" after the first epoch
        # establishes the best loss -> stop after 1 + patience epochs.
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=30, patience=2,
                          min_delta=100.0).fit()
        assert len(history.losses) == 3

    def test_runs_full_without_patience(self, dataset):
        rng = np.random.default_rng(0)
        method = GraphCL(dataset.num_features, 8, 2, rng=rng)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=3).fit()
        assert len(history.losses) == 3


class TestNonFiniteGuard:
    class ExplodingMethod(GraphCL):
        def training_loss(self, batch):
            return Tensor(np.array(np.nan)) * self.encoder.parameters()[0].sum()

    def test_raises_on_nan(self, dataset):
        rng = np.random.default_rng(0)
        method = self.ExplodingMethod(dataset.num_features, 8, 2, rng=rng)
        with pytest.raises(FloatingPointError, match="non-finite"):
            Trainer(method, GraphSteps(dataset.graphs, batch_size=16, seed=0),
                    epochs=1).fit()


class TestGradClipIntegration:
    def test_training_with_clip_converges(self, dataset):
        rng = np.random.default_rng(0)
        method = GraphCL(dataset.num_features, 8, 2, rng=rng)
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=3,
                          grad_clip=1.0).fit()
        assert all(np.isfinite(history.losses))
