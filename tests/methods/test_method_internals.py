"""Deeper method-internal behaviours beyond smoke training."""

import numpy as np
import pytest

from repro.core import GradGCLObjective, InfoNCEObjective
from repro.datasets import load_node_dataset, load_tu_dataset
from repro.graph import GraphBatch
from repro.methods import COSTA, GraphCL, InfoGraph, MVGRL, SimGRACE
from repro.methods.mvgrl import _batch_diffusion
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def node_dataset():
    return load_node_dataset("Cora", scale="tiny", seed=0)


class TestObjectiveWiring:
    def test_loss_equals_convex_combination_of_parts(self, dataset):
        # For a paired-view method, the logged parts must recompose the
        # total loss exactly per Eq. 18.
        rng = np.random.default_rng(0)
        method = GraphCL(dataset.num_features, 8, 2, rng=rng)
        method.objective = GradGCLObjective(base=InfoNCEObjective(),
                                            weight=0.3)
        batch = GraphBatch(dataset.graphs[:16])
        total = method.training_loss(batch).item()
        parts = method.objective.last_parts
        expected = 0.7 * parts["loss_f"] + 0.3 * parts["loss_g"]
        np.testing.assert_allclose(total, expected, atol=1e-10)

    def test_objective_swap_changes_loss(self, dataset):
        rng = np.random.default_rng(0)
        method = GraphCL(dataset.num_features, 8, 2, rng=rng)
        batch = GraphBatch(dataset.graphs[:16])
        # Same RNG state for both calls by re-seeding the method RNG.
        method._rng = np.random.default_rng(1)
        base = method.training_loss(batch).item()
        method.objective = InfoNCEObjective(tau=0.1)
        method._rng = np.random.default_rng(1)
        sharp = method.training_loss(batch).item()
        assert base != sharp


class TestSimGRACEInternals:
    def test_perturbation_magnitude_controls_view_gap(self, dataset):
        batch = GraphBatch(dataset.graphs[:16])

        def view_distance(magnitude):
            rng = np.random.default_rng(0)
            method = SimGRACE(dataset.num_features, 8, 2, rng=rng,
                              perturb_magnitude=magnitude)
            method._rng = np.random.default_rng(2)
            u, v = method.project_views(batch)
            return float(np.abs(u.data - v.data).mean())

        assert view_distance(1.0) > view_distance(0.01)

    def test_zero_perturbation_gives_identical_views(self, dataset):
        rng = np.random.default_rng(0)
        method = SimGRACE(dataset.num_features, 8, 2, rng=rng,
                          perturb_magnitude=0.0)
        method.eval()  # freeze batch-norm statistics between passes
        batch = GraphBatch(dataset.graphs[:8])
        u, v = method.project_views(batch)
        np.testing.assert_allclose(u.data, v.data, atol=1e-10)


class TestInfoGraphInternals:
    def test_membership_mask_is_correct(self, dataset):
        rng = np.random.default_rng(0)
        method = InfoGraph(dataset.num_features, 8, 2, rng=rng,
                           max_nodes_per_step=10_000)
        batch = GraphBatch(dataset.graphs[:5])
        _, __, mask = method._local_global(batch)
        assert mask.shape == (batch.num_nodes, batch.num_graphs)
        np.testing.assert_array_equal(mask.sum(axis=1), 1)
        np.testing.assert_array_equal(mask.argmax(axis=1),
                                      batch.node_to_graph)


class TestMVGRLInternals:
    def test_batch_diffusion_block_diagonal(self, dataset):
        batch = GraphBatch(dataset.graphs[:3])
        diff = _batch_diffusion(batch, alpha=0.2).toarray()
        offsets = batch.node_offsets
        # Cross-graph entries are exactly zero.
        assert np.abs(diff[:offsets[1], offsets[1]:]).max() == 0.0
        assert np.abs(diff[offsets[1]:offsets[2], offsets[2]:]).max() == 0.0

    def test_graph_embedding_has_two_views(self, dataset):
        rng = np.random.default_rng(0)
        method = MVGRL(dataset.num_features, 8, 2, rng=rng)
        emb = method.embed(dataset.graphs[:4])
        assert emb.shape == (4, 16)
        # Both halves carry signal.
        assert np.abs(emb[:, :8]).sum() > 0
        assert np.abs(emb[:, 8:]).sum() > 0


class TestCOSTAInternals:
    def test_sketch_approximately_preserves_covariance(self, node_dataset):
        rng = np.random.default_rng(0)
        method = COSTA(node_dataset.num_features, 16, 8, rng=rng,
                       sketch_strength=0.3)
        h = Tensor(rng.normal(size=(120, 8)))
        sketched = method._sketch(h)
        cov_original = np.cov(h.data.T)
        cov_sketched = np.cov(sketched.data.T)
        relative = (np.linalg.norm(cov_sketched - cov_original)
                    / np.linalg.norm(cov_original))
        assert relative < 0.6  # JL-style mixing keeps covariance close
