"""Layer behaviour: Linear, BatchNorm, Dropout, activations, MLP."""

import numpy as np
import pytest

from repro.nn import (
    MLP,
    BatchNorm1d,
    Dropout,
    Identity,
    LeakyReLU,
    Linear,
    PReLU,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.tensor import Tensor, autocast, fused_kernels

from ..gradcheck import assert_gradients_match


@pytest.fixture
def rng():
    return np.random.default_rng(13)


class TestLinear:
    def test_forward_matches_manual(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_no_bias(self, rng):
        layer = Linear(3, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((2, 3)))).data.sum() == 0.0

    def test_gradients(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 3)))
        assert_gradients_match(lambda: (layer(x) ** 2).sum(),
                               layer.weight, layer.bias)

    def test_init_scale(self, rng):
        layer = Linear(100, 100, rng=rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= limit + 1e-12


class TestBatchNorm:
    def test_normalizes_in_training(self, rng):
        bn = BatchNorm1d(4)
        x = Tensor(rng.normal(loc=5.0, scale=3.0, size=(200, 4)))
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_used_in_eval(self, rng):
        bn = BatchNorm1d(2, momentum=1.0)  # running stats = last batch
        x = rng.normal(loc=2.0, size=(100, 2))
        bn(Tensor(x))
        bn.eval()
        out = bn(Tensor(x))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-6)

    def test_gradients(self, rng):
        bn = BatchNorm1d(3)
        x = Tensor(rng.normal(size=(8, 3)), requires_grad=True)
        assert_gradients_match(lambda: (bn(x) ** 2).sum(), x, bn.gamma,
                               bn.beta, atol=1e-4, rtol=1e-3)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_fused_matches_reference_in_training(self, dtype):
        """Same forward bytes and running statistics on both kernels;
        gradients agree to roundoff."""
        data = np.random.default_rng(5).normal(2.0, 3.0, size=(7, 4))
        data[:, 1] = -0.25                      # constant column
        upstream = np.random.default_rng(6).normal(size=(7, 4))
        results = {}
        for fused in (True, False):
            with autocast(dtype), fused_kernels(fused):
                bn = BatchNorm1d(4)
                bn.gamma.data[:] = [0.5, -1.0, 2.0, 1.5]
                x = Tensor(data, requires_grad=True)
                bn(x)                           # two running-stat updates
                out = bn(x)
                (out * Tensor(upstream)).sum().backward()
            results[fused] = (out.data, bn.running_mean, bn.running_var,
                              [x.grad, bn.gamma.grad, bn.beta.grad])
        fused_run, reference_run = results[True], results[False]
        for got, expected in zip(fused_run[:3], reference_run[:3]):
            assert got.dtype == expected.dtype == dtype
            assert got.tobytes() == expected.tobytes()
        tol = 1e-9 if dtype == np.float64 else 1e-4
        for got, expected in zip(fused_run[3], reference_run[3]):
            np.testing.assert_allclose(got, expected, rtol=tol, atol=tol)

    def test_eval_uses_running_statistics_composite(self, rng):
        bn = BatchNorm1d(3)
        bn.gamma.data[:] = [1.5, -0.5, 2.0]
        bn.beta.data[:] = [0.1, 0.2, -0.3]
        bn(Tensor(rng.normal(1.0, 2.0, size=(9, 3))))
        bn.eval()
        x = rng.normal(size=(4, 3))
        mean = bn.running_mean.reshape(1, -1)
        var = bn.running_var.reshape(1, -1)
        expected = ((x - mean) / np.sqrt(var + np.asarray(bn.eps))
                    * bn.gamma.data + bn.beta.data)
        for fused in (True, False):
            with fused_kernels(fused):
                assert bn(Tensor(x)).data.tobytes() == expected.tobytes()


class TestDropout:
    def test_eval_is_identity(self, rng):
        drop = Dropout(0.5, rng=rng)
        drop.eval()
        x = Tensor(rng.normal(size=(10, 3)))
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_training_zeroes_and_rescales(self, rng):
        drop = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((2000, 1)))
        out = drop(x).data
        zeros = (out == 0).mean()
        assert 0.4 < zeros < 0.6
        nonzero = out[out != 0]
        np.testing.assert_allclose(nonzero, 2.0)

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.0, rng=rng)


class TestActivations:
    def test_shapes_preserved(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        for act in [ReLU(), Tanh(), Sigmoid(), LeakyReLU(), PReLU(),
                    Identity()]:
            assert act(x).shape == x.shape

    def test_prelu_learns_slope(self, rng):
        act = PReLU(init_slope=0.5)
        x = Tensor(np.array([[-2.0, 3.0]]))
        out = act(x)
        np.testing.assert_allclose(out.data, [[-1.0, 3.0]])
        out.sum().backward()
        assert act.slope.grad is not None
        np.testing.assert_allclose(act.slope.grad, [-2.0])


class TestMLP:
    def test_shapes(self, rng):
        mlp = MLP([5, 8, 3], rng=rng)
        assert mlp(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_overfits_tiny_regression(self, rng):
        # A 2-layer MLP should fit 8 random points near-perfectly.
        from repro.nn import Adam

        x = Tensor(rng.normal(size=(8, 3)))
        y = Tensor(rng.normal(size=(8, 1)))
        mlp = MLP([3, 32, 1], rng=rng)
        optimizer = Adam(mlp.parameters(), lr=1e-2)
        for _ in range(300):
            optimizer.zero_grad()
            loss = ((mlp(x) - y) ** 2).mean()
            loss.backward()
            optimizer.step()
        assert loss.item() < 1e-2

    def test_batch_norm_and_dropout_options(self, rng):
        mlp = MLP([4, 8, 2], rng=rng, batch_norm=True, dropout=0.2)
        out = mlp(Tensor(rng.normal(size=(6, 4))))
        assert out.shape == (6, 2)
