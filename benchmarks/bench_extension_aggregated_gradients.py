"""Extension bench: neighbourhood-aggregated node gradients.

The paper attributes the smaller node-classification gains to per-node
gradients lacking neighbourhood aggregation (Sec. IV-B) and leaves the fix
implicit.  This bench compares GRACE / GRACE(f+g) / GRACE(f+g, aggregated
gradients) on citation-style datasets.

Shape target: the aggregated variant is competitive with plain GradGCL and
should close part of the gap the paper describes.
"""

import numpy as np

from repro.core import gradgcl
from repro.datasets import load_node_dataset
from repro.eval import evaluate_node_embeddings
from repro.methods import GRACE
from repro.run import NodeSteps, Trainer

from .common import config, report, run_once

DATASETS = ["Cora", "CiteSeer"]


def _evaluate(dataset, cfg, *, weight, aggregate, seed=0):
    rng = np.random.default_rng(seed)
    method = GRACE(dataset.num_features, 32, 16, rng=rng,
                   aggregate_gradients=aggregate)
    if weight > 0:
        method = gradgcl(method, weight)
    Trainer(method, NodeSteps(dataset.graph), epochs=cfg.node_epochs,
            lr=3e-3).fit()
    acc, std = evaluate_node_embeddings(method.embed(dataset.graph),
                                        dataset.labels(),
                                        dataset.train_mask,
                                        dataset.test_mask, seed=seed)
    return acc, std


def _run():
    cfg = config()
    rows = []
    results = {}
    variants = [("GRACE", 0.0, False),
                ("GRACE(f+g)", 0.5, False),
                ("GRACE(f+g, agg-grad)", 0.5, True)]
    for name in DATASETS:
        dataset = load_node_dataset(name, scale=cfg.dataset_scale, seed=0)
        for label, weight, aggregate in variants:
            acc, std = _evaluate(dataset, cfg, weight=weight,
                                 aggregate=aggregate)
            results[(name, label)] = acc
            rows.append([name, label, f"{acc:.2f}±{std:.2f}"])
    report("extension_agg_gradients",
           "Extension: neighbourhood-aggregated gradient features",
           ["Dataset", "Variant", "Accuracy (%)"], rows,
           note="Aggregation gives the gradient channel the receptive "
                "field the paper says node-level gradients lack.")
    return results


def test_extension_aggregated_gradients(benchmark):
    results = run_once(benchmark, _run)
    for name in DATASETS:
        plain = results[(name, "GRACE(f+g)")]
        aggregated = results[(name, "GRACE(f+g, agg-grad)")]
        assert aggregated > plain - 8.0  # competitive, not catastrophic
