"""The paper's scientific claims at test scale.

These are slower, statistical tests: each pins one qualitative claim from
the paper on a seeded miniature of the corresponding experiment.
"""

import numpy as np
import pytest

from repro.core import effective_rank, gradgcl
from repro.datasets import load_tu_dataset
from repro.methods import SimGRACE
from repro.run import GraphSteps, Trainer
from repro.tensor import Tensor
from repro.core import infonce_gradient_features

# Hypothesis-heavy / end-to-end suite: deselected by CI tier (b)
# via -m 'not slow'; `make test-all` runs it.
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def imdb():
    return load_tu_dataset("IMDB-B", scale="tiny", seed=0)


def train_simgrace(dataset, weight, seed, *, epochs=30,
                   weight_decay=3e-2):
    """SimGRACE in the collapse regime (weight decay + longer training)."""
    rng = np.random.default_rng(seed)
    method = SimGRACE(dataset.num_features, 16, 2, rng=rng,
                      perturb_magnitude=0.5)
    if weight > 0:
        method = gradgcl(method, weight)
    Trainer(method, GraphSteps(dataset.graphs, batch_size=64, seed=seed),
            epochs=epochs, lr=3e-3, weight_decay=weight_decay).fit()
    return method


class TestDimensionalCollapse:
    def test_collapse_occurs_in_base_model(self, imdb):
        # Fig. 1's premise: trained representations have a collapsed tail.
        method = train_simgrace(imdb, weight=0.0, seed=0)
        emb = method.embed(imdb.graphs)
        assert effective_rank(emb) < emb.shape[1] / 2

    def test_gradients_raise_effective_rank(self, imdb):
        # Fig. 5's claim, averaged over seeds for stability.
        base_ranks, grad_ranks = [], []
        for seed in range(3):
            base = train_simgrace(imdb, weight=0.0, seed=seed)
            full = train_simgrace(imdb, weight=0.5, seed=seed)
            base_ranks.append(effective_rank(base.embed(imdb.graphs)))
            grad_ranks.append(effective_rank(full.embed(imdb.graphs)))
        assert np.mean(grad_ranks) > np.mean(base_ranks)


class TestGradientInformation:
    def test_gradient_similarities_more_diverse(self, imdb):
        # Fig. 3's claim: instance-wise gradient similarities are less
        # saturated than representation similarities.
        method = train_simgrace(imdb, weight=0.0, seed=0, epochs=15,
                                weight_decay=0.0)
        emb = method.embed(imdb.graphs)
        u = Tensor(emb)
        # Second view: embeddings themselves (self-pair) shifted by noise-free
        # perturbed encoder pass is expensive; gradients w.r.t. a shuffled
        # positive assignment exercise Eq. 6's fine-grained structure.
        g, _ = infonce_gradient_features(u, u, tau=0.5, sim="cos")
        rep_intra = _saturation(emb)
        grad_intra = _saturation(g.data)
        assert grad_intra < rep_intra

    def test_gradients_alone_carry_class_signal(self, imdb):
        # Table IV's XXX(g) rows: training on gradients alone still yields
        # embeddings that beat chance downstream.
        from repro.eval import evaluate_graph_embeddings

        method = train_simgrace(imdb, weight=1.0, seed=1, epochs=15,
                                weight_decay=0.0)
        acc, _ = evaluate_graph_embeddings(method.embed(imdb.graphs),
                                           imdb.labels(), folds=4,
                                           repeats=2)
        assert acc > 55.0


def _saturation(embeddings: np.ndarray) -> float:
    """Fraction of |cosine| similarities above 0.95 (block saturation)."""
    from repro.eval import cosine_similarity

    sims = cosine_similarity(embeddings)
    n = len(sims)
    off = sims[~np.eye(n, dtype=bool)]
    return float((np.abs(off) > 0.95).mean())
