"""Unsupervised graph classification across methods (mini Table IV).

Trains GraphCL, JOAO, and SimGRACE — each base vs GradGCL(f+g) — on two
TU-style datasets and prints a Table IV-shaped comparison, alongside the
classic WL / graphlet / graph2vec baselines.

Usage::

    python examples/graph_classification.py
"""

import numpy as np

from repro.baselines import graph2vec_features, graphlet_features, wl_features
from repro.core import gradgcl
from repro.datasets import load_tu_dataset
from repro.eval import evaluate_graph_embeddings
from repro.methods import GraphCL, JOAO, SimGRACE
from repro.run import GraphSteps, Trainer
from repro.utils import format_cell, print_table

DATASETS = ["MUTAG", "IMDB-B"]
METHODS = [("GraphCL", GraphCL), ("JOAO", JOAO), ("SimGRACE", SimGRACE)]
KERNELS = [("WL", wl_features), ("GL", graphlet_features),
           ("graph2vec", graph2vec_features)]


def evaluate_method(cls, dataset, weight: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    method = cls(dataset.num_features, hidden_dim=16, num_layers=2, rng=rng)
    if weight > 0:
        method = gradgcl(method, weight)
    Trainer(method, GraphSteps(dataset.graphs, batch_size=32, seed=seed),
            epochs=8, lr=1e-3).fit()
    return evaluate_graph_embeddings(method.embed(dataset.graphs),
                                     dataset.labels(), folds=5, repeats=2,
                                     seed=seed)


def main():
    datasets = {name: load_tu_dataset(name, scale="small", seed=0)
                for name in DATASETS}
    rows = []
    for label, features_fn in KERNELS:
        cells = []
        for name in DATASETS:
            ds = datasets[name]
            acc, std = evaluate_graph_embeddings(features_fn(ds.graphs),
                                                 ds.labels(), folds=5,
                                                 repeats=2)
            cells.append(format_cell(acc, std))
        rows.append([label] + cells)
    for label, cls in METHODS:
        for suffix, weight in [("", 0.0), ("(f+g)", 0.5)]:
            cells = []
            for name in DATASETS:
                acc, std = evaluate_method(cls, datasets[name], weight)
                cells.append(format_cell(acc, std))
            rows.append([label + suffix] + cells)
    print_table("Unsupervised graph classification (mini Table IV)",
                ["Method"] + DATASETS, rows)


if __name__ == "__main__":
    main()
