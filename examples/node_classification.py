"""Transductive node classification (mini Tables V and VII).

Trains GRACE, BGRL, and COSTA — base vs GradGCL(f+g) — on a Cora-style SBM
dataset and compares against raw features, DeepWalk, and a supervised GCN.

Usage::

    python examples/node_classification.py
"""

import numpy as np

from repro.baselines import (
    deepwalk_node_embeddings,
    raw_node_features,
    supervised_gcn_accuracy,
)
from repro.core import gradgcl
from repro.datasets import load_node_dataset
from repro.eval import evaluate_node_embeddings
from repro.methods import BGRL, COSTA, GRACE
from repro.run import NodeSteps, Trainer
from repro.utils import format_cell, print_table


def evaluate_method(cls, dataset, weight: float, seed: int = 0):
    rng = np.random.default_rng(seed)
    method = cls(dataset.num_features, hidden_dim=32, out_dim=16, rng=rng)
    if weight > 0:
        method = gradgcl(method, weight)
    Trainer(method, NodeSteps(dataset.graph), epochs=25, lr=3e-3).fit()
    return evaluate_node_embeddings(method.embed(dataset.graph),
                                    dataset.labels(), dataset.train_mask,
                                    dataset.test_mask, seed=seed)


def main():
    dataset = load_node_dataset("Cora", scale="small", seed=0)
    stats = dataset.statistics()
    print(f"Dataset: {stats['name']} — {stats['nodes']} nodes, "
          f"{stats['edges']} edges, {stats['classes']} classes")

    rows = []
    raw_acc, raw_std = evaluate_node_embeddings(
        raw_node_features(dataset.graph), dataset.labels(),
        dataset.train_mask, dataset.test_mask)
    rows.append(["Raw features", format_cell(raw_acc, raw_std)])

    dw = deepwalk_node_embeddings(dataset.graph, dim=32, num_walks=3,
                                  walk_length=10, epochs=2)
    dw_acc, dw_std = evaluate_node_embeddings(dw, dataset.labels(),
                                              dataset.train_mask,
                                              dataset.test_mask)
    rows.append(["DeepWalk", format_cell(dw_acc, dw_std)])

    gcn_acc = supervised_gcn_accuracy(dataset, hidden_dim=32, epochs=80)
    rows.append(["Supervised GCN", f"{gcn_acc:.2f}"])

    for label, cls in [("GRACE", GRACE), ("BGRL", BGRL), ("COSTA", COSTA)]:
        for suffix, weight in [("", 0.0), ("(f+g)", 0.5)]:
            acc, std = evaluate_method(cls, dataset, weight)
            rows.append([label + suffix, format_cell(acc, std)])
    print_table("Node classification (mini Tables V / VII)",
                ["Method", "Accuracy (%)"], rows)


if __name__ == "__main__":
    main()
