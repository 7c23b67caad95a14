"""Determinism and mode-isolation guarantees of the methods."""

import numpy as np
import pytest

from repro.core import gradgcl
from repro.datasets import load_node_dataset, load_tu_dataset
from repro.methods import GRACE, GraphCL, SimGRACE
from repro.run import GraphSteps, NodeSteps, Trainer


@pytest.fixture(scope="module")
def dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def node_dataset():
    return load_node_dataset("Cora", scale="tiny", seed=0)


def run_training(dataset, seed, weight=0.0):
    rng = np.random.default_rng(seed)
    method = GraphCL(dataset.num_features, 8, 2, rng=rng)
    if weight > 0:
        method = gradgcl(method, weight)
    history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                         seed=seed), epochs=2).fit()
    return method, history


class TestGraphDeterminism:
    def test_same_seed_same_history(self, dataset):
        _, h1 = run_training(dataset, seed=5)
        _, h2 = run_training(dataset, seed=5)
        np.testing.assert_allclose(h1.losses, h2.losses, atol=1e-12)

    def test_same_seed_same_parameters(self, dataset):
        m1, _ = run_training(dataset, seed=5)
        m2, _ = run_training(dataset, seed=5)
        for (_, a), (_, b) in zip(m1.named_parameters(),
                                  m2.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_differs(self, dataset):
        _, h1 = run_training(dataset, seed=5)
        _, h2 = run_training(dataset, seed=6)
        assert not np.allclose(h1.losses, h2.losses)

    def test_gradgcl_deterministic_too(self, dataset):
        _, h1 = run_training(dataset, seed=5, weight=0.5)
        _, h2 = run_training(dataset, seed=5, weight=0.5)
        np.testing.assert_allclose(h1.losses, h2.losses, atol=1e-12)


class TestEmbedIsolation:
    def test_embed_is_idempotent(self, dataset):
        method, _ = run_training(dataset, seed=1)
        a = method.embed(dataset.graphs)
        b = method.embed(dataset.graphs)
        np.testing.assert_array_equal(a, b)

    def test_embed_does_not_change_parameters(self, dataset):
        method, _ = run_training(dataset, seed=1)
        before = method.state_dict()
        method.embed(dataset.graphs)
        after = method.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_embed_restores_training_mode(self, dataset):
        method, _ = run_training(dataset, seed=1)
        assert method.training
        method.embed(dataset.graphs)
        assert method.training

    def test_embed_batching_invariance(self, dataset):
        method, _ = run_training(dataset, seed=1)
        whole = method.embed(dataset.graphs, batch_size=1000)
        chunked = method.embed(dataset.graphs, batch_size=7)
        np.testing.assert_allclose(whole, chunked, atol=1e-8)


class TestSimGRACEAndGRACE:
    def test_simgrace_deterministic(self, dataset):
        histories = []
        for _ in range(2):
            rng = np.random.default_rng(3)
            method = SimGRACE(dataset.num_features, 8, 2, rng=rng)
            steps = GraphSteps(dataset.graphs, batch_size=16, seed=3)
            histories.append(Trainer(method, steps, epochs=2).fit())
        np.testing.assert_allclose(histories[0].losses,
                                   histories[1].losses, atol=1e-12)

    def test_grace_deterministic(self, node_dataset):
        losses = []
        for _ in range(2):
            rng = np.random.default_rng(3)
            method = GRACE(node_dataset.num_features, 16, 8, rng=rng)
            h = Trainer(method, NodeSteps(node_dataset.graph), epochs=2).fit()
            losses.append(h.losses)
        np.testing.assert_allclose(losses[0], losses[1], atol=1e-12)
