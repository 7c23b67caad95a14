"""Fig. 12: augmenter ablation and the alignment-loss baseline.

(a) GradGCL across augmentation families: node dropping, subgraph sampling
    (GraphCL backbone), and encoder perturbation (SimGRACE backbone).
(b) GradGCL vs adding Wang & Isola's alignment loss with the same weight.

Shape targets (paper): (a) GradGCL improves the base for every augmenter;
(b) the alignment baseline helps but GradGCL helps more (extra graph
information beyond alignment pressure).
"""

import numpy as np

from repro.augment import NodeDrop, SubgraphSample
from repro.core import AlignmentAugmentedObjective, gradgcl
from repro.datasets import load_tu_dataset
from repro.eval import evaluate_graph_embeddings
from repro.methods import GraphCL, SimGRACE
from repro.run import GraphSteps, Trainer

from .common import config, report, run_once


def _evaluate(method, dataset, cfg, seed=0):
    Trainer(method, GraphSteps(dataset.graphs, batch_size=32, seed=seed),
            epochs=cfg.graph_epochs).fit()
    acc, std = evaluate_graph_embeddings(method.embed(dataset.graphs),
                                         dataset.labels(), folds=cfg.folds,
                                         repeats=cfg.cv_repeats, seed=seed)
    return acc, std


def _augmenter_panel(dataset, cfg):
    rows = []
    panels = [
        ("Node drop", lambda rng: GraphCL(dataset.num_features, 16, 2,
                                          rng=rng,
                                          augmentation=NodeDrop(0.2))),
        ("Subgraph", lambda rng: GraphCL(dataset.num_features, 16, 2,
                                         rng=rng,
                                         augmentation=SubgraphSample(0.8))),
        ("Encoder perturb", lambda rng: SimGRACE(dataset.num_features, 16,
                                                 2, rng=rng)),
    ]
    for label, factory in panels:
        base_acc, base_std = _evaluate(factory(np.random.default_rng(0)),
                                       dataset, cfg)
        wrapped = gradgcl(factory(np.random.default_rng(0)), 0.5)
        grad_acc, grad_std = _evaluate(wrapped, dataset, cfg)
        rows.append([f"(a) {label}", f"{base_acc:.2f}±{base_std:.2f}",
                     f"{grad_acc:.2f}±{grad_std:.2f}",
                     f"{grad_acc - base_acc:+.2f}"])
    return rows


def _alignment_panel(dataset, cfg):
    rows = []
    base = SimGRACE(dataset.num_features, 16, 2,
                    rng=np.random.default_rng(0))
    base_acc, base_std = _evaluate(base, dataset, cfg)

    align = SimGRACE(dataset.num_features, 16, 2,
                     rng=np.random.default_rng(0))
    align.objective = AlignmentAugmentedObjective(base=align.objective,
                                                  weight=0.5)
    align_acc, align_std = _evaluate(align, dataset, cfg)

    grad = gradgcl(SimGRACE(dataset.num_features, 16, 2,
                            rng=np.random.default_rng(0)), 0.5)
    grad_acc, grad_std = _evaluate(grad, dataset, cfg)

    rows.append(["(b) SimGRACE", f"{base_acc:.2f}±{base_std:.2f}", "", ""])
    rows.append(["(b) + Align loss", f"{align_acc:.2f}±{align_std:.2f}",
                 "", f"{align_acc - base_acc:+.2f}"])
    rows.append(["(b) + GradGCL", f"{grad_acc:.2f}±{grad_std:.2f}", "",
                 f"{grad_acc - base_acc:+.2f}"])
    return rows, grad_acc, align_acc


def _run():
    cfg = config()
    dataset = load_tu_dataset("IMDB-B", scale=cfg.dataset_scale, seed=0)
    rows = _augmenter_panel(dataset, cfg)
    more_rows, grad_acc, align_acc = _alignment_panel(dataset, cfg)
    rows.extend(more_rows)
    report("fig12", "Fig. 12: augmenter ablation and alignment baseline",
           ["Panel", "Base / variant acc (%)", "GradGCL acc (%)", "Delta"],
           rows,
           note="Shape targets: GradGCL helps across augmenters; GradGCL "
                ">= alignment-loss baseline.")
    return grad_acc, align_acc


def test_fig12_ablations(benchmark):
    grad_acc, align_acc = run_once(benchmark, _run)
    assert grad_acc >= align_acc - 3.0
