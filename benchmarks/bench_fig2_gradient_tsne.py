"""Fig. 2: t-SNE of representations vs gradient features.

Trains SimGRACE on MUTAG- and IMDB-B-style datasets, embeds both the
representations and their Eq. 6 gradient features with t-SNE, and compares
cluster statistics of the two channels.

Shape target (paper): both channels separate the classes, but the gradient
distribution is more diverse (less block-saturated) than the representation
distribution — quantified here by similarity diversity and intra-class
spread in the t-SNE plane.
"""

import numpy as np

from repro.core import infonce_gradient_features
from repro.datasets import load_tu_dataset
from repro.eval import similarity_diversity, tsne
from repro.methods import SimGRACE
from repro.run import GraphSteps, Trainer
from repro.tensor import Tensor

from .common import config, report, run_once

DATASETS = ["MUTAG", "IMDB-B"]


def _intra_class_spread(points: np.ndarray, labels: np.ndarray) -> float:
    """Mean distance of points to their class centroid in the t-SNE plane."""
    total = 0.0
    for c in np.unique(labels):
        members = points[labels == c]
        centroid = members.mean(axis=0)
        total += float(np.linalg.norm(members - centroid, axis=1).mean())
    scale = float(np.linalg.norm(points - points.mean(axis=0),
                                 axis=1).mean())
    return total / (len(np.unique(labels)) * max(scale, 1e-9))


def _run():
    cfg = config()
    rows = []
    for name in DATASETS:
        dataset = load_tu_dataset(name, scale=cfg.dataset_scale, seed=0)
        rng = np.random.default_rng(0)
        method = SimGRACE(dataset.num_features, 16, 2, rng=rng)
        Trainer(method, GraphSteps(dataset.graphs, batch_size=32, seed=0),
                epochs=cfg.graph_epochs).fit()
        emb = method.embed(dataset.graphs)
        u = Tensor(emb)
        grads, _ = infonce_gradient_features(u, u, tau=0.5, sim="cos")
        labels = dataset.labels()
        n = min(len(emb), 120)  # t-SNE is O(n^2)
        rep_plane = tsne(emb[:n], iterations=150, seed=0)
        grad_plane = tsne(grads.data[:n], iterations=150, seed=0)
        rows.append([name, "representations",
                     f"{similarity_diversity(emb):.3f}",
                     f"{_intra_class_spread(rep_plane, labels[:n]):.3f}"])
        rows.append([name, "gradients",
                     f"{similarity_diversity(grads.data):.3f}",
                     f"{_intra_class_spread(grad_plane, labels[:n]):.3f}"])
    report("fig2", "Fig. 2: representation vs gradient distributions",
           ["Dataset", "Channel", "Similarity diversity",
            "Relative intra-class spread (t-SNE)"], rows,
           note="Shape target: gradient channel shows more intra-class "
                "spread/diversity than representations.")
    return rows


def test_fig2_gradient_tsne(benchmark):
    rows = run_once(benchmark, _run)
    assert rows
