"""End-to-end pipelines: train -> embed -> evaluate for each task family."""

import numpy as np
import pytest

from repro.core import gradgcl
from repro.datasets import (
    load_molecule_dataset,
    load_node_dataset,
    load_pretrain_dataset,
    load_tu_dataset,
)
from repro.eval import evaluate_graph_embeddings, evaluate_node_embeddings
from repro.methods import GRACE, GraphCL, SimGRACE, run_transfer
from repro.run import GraphSteps, NodeSteps, Trainer

# Hypothesis-heavy / end-to-end suite: deselected by CI tier (b)
# via -m 'not slow'; `make test-all` runs it.
pytestmark = pytest.mark.slow


class TestGraphClassificationPipeline:
    def test_simgrace_beats_chance(self):
        ds = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = SimGRACE(ds.num_features, 8, 2, rng=rng)
        Trainer(method, GraphSteps(ds.graphs, batch_size=16, seed=0),
                epochs=5).fit()
        acc, std = evaluate_graph_embeddings(method.embed(ds.graphs),
                                             ds.labels(), folds=4,
                                             repeats=2)
        assert acc > 55.0
        assert std >= 0.0

    def test_gradgcl_variant_runs_end_to_end(self):
        ds = load_tu_dataset("IMDB-B", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = gradgcl(GraphCL(ds.num_features, 8, 2, rng=rng), 0.5)
        Trainer(method, GraphSteps(ds.graphs, batch_size=16, seed=0),
                epochs=3).fit()
        acc, _ = evaluate_graph_embeddings(method.embed(ds.graphs),
                                           ds.labels(), folds=4, repeats=1)
        assert 0.0 <= acc <= 100.0


class TestNodeClassificationPipeline:
    def test_grace_pipeline(self):
        ds = load_node_dataset("CiteSeer", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = GRACE(ds.num_features, 16, 8, rng=rng)
        Trainer(method, NodeSteps(ds.graph), epochs=8, lr=3e-3).fit()
        acc, _ = evaluate_node_embeddings(method.embed(ds.graph),
                                          ds.labels(), ds.train_mask,
                                          ds.test_mask, repeats=1)
        assert acc > 100.0 / ds.num_classes


class TestTransferPipeline:
    def test_pretrain_then_finetune(self):
        pretrain = load_pretrain_dataset("PPI-306K", scale="tiny", seed=0)
        downstream = load_molecule_dataset("Tox21", scale="tiny", seed=0)
        rng = np.random.default_rng(0)
        method = gradgcl(GraphCL(pretrain.num_features, 8, 2, rng=rng), 0.3)
        result = run_transfer(method, pretrain.graphs, [downstream],
                              pretrain_epochs=1, finetune_epochs=4,
                              repeats=1, seed=0)
        assert 0.0 <= result["Tox21"] <= 100.0
