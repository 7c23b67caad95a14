"""Fig. 6: similarity heatmaps become more diverse with gradient weight.

Trains SimGRACE at a in {0, 0.5, 1.0} and reports the intra/inter class
similarity statistics of the learned representations.

Shape target (paper): with increasing a the similarity distribution is
"less centered" — the intra-class block saturates less (smaller intra-inter
gap), while classes remain separable downstream.
"""

import numpy as np

from repro.core import gradgcl
from repro.datasets import load_tu_dataset
from repro.eval import (
    evaluate_graph_embeddings,
    intra_inter_class_similarity,
    similarity_diversity,
)
from repro.methods import SimGRACE
from repro.run import GraphSteps, Trainer

from .common import config, report, run_once

WEIGHTS = [0.0, 0.5, 1.0]


def _run():
    cfg = config()
    dataset = load_tu_dataset("MUTAG", scale=cfg.dataset_scale, seed=0)
    labels = dataset.labels()
    seeds = cfg.seeds if len(cfg.seeds) > 1 else (0, 1)
    rows = []
    gaps = {}
    for weight in WEIGHTS:
        intras, inters, diversities, accs = [], [], [], []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            method = SimGRACE(dataset.num_features, 16, 2, rng=rng)
            if weight > 0:
                method = gradgcl(method, weight)
            Trainer(method,
                    GraphSteps(dataset.graphs, batch_size=32, seed=seed),
                    epochs=2 * cfg.graph_epochs).fit()
            emb = method.embed(dataset.graphs)
            intra, inter = intra_inter_class_similarity(emb, labels)
            acc, _ = evaluate_graph_embeddings(emb, labels, folds=cfg.folds,
                                               repeats=cfg.cv_repeats,
                                               seed=seed)
            intras.append(intra)
            inters.append(inter)
            diversities.append(similarity_diversity(emb))
            accs.append(acc)
        intra, inter = np.mean(intras), np.mean(inters)
        gaps[weight] = intra - inter
        rows.append([f"a={weight}", f"{intra:.3f}", f"{inter:.3f}",
                     f"{intra - inter:.3f}",
                     f"{np.mean(diversities):.3f}", f"{np.mean(accs):.2f}"])
    report("fig6", "Fig. 6: representation similarity vs gradient weight",
           ["Weight", "Intra-class", "Inter-class", "Gap", "Diversity",
            "Accuracy (%)"], rows,
           note="Shape target: larger a -> smaller intra/inter gap while "
                "accuracy holds.")
    return gaps


def test_fig6_heatmap_vs_weight(benchmark):
    gaps = run_once(benchmark, _run)
    assert min(gaps[0.5], gaps[1.0]) < gaps[0.0] + 0.05
