"""Table VI: transfer learning — pretrain on molecules, finetune downstream.

GraphCL and SimGRACE, base vs (f+g), pretrained on a ZINC-style corpus
(plus a PPI-style corpus for the PPI column) and finetuned on
MoleculeNet-style binary datasets; ROC-AUC per dataset plus the average.

Shape targets (paper): pretraining beats no-pretrain on average; (f+g)
improves the average; per-dataset wins are mixed (no universally best
strategy, Sec. IV-C).
"""

import numpy as np

from repro.datasets import load_molecule_dataset, load_pretrain_dataset
from repro.gnn import GINEncoder
from repro.methods import GraphCL, SimGRACE, finetune_roc_auc, run_transfer
from repro.methods.pretrain_baselines import AttrMasking, ContextPred

from .common import config, full_grid, build_graph_variant, report, run_once

BENCH_DOWNSTREAM = ["BBBP", "BACE", "ClinTox"]
FULL_DOWNSTREAM = ["BBBP", "ToxCast", "SIDER", "BACE", "ClinTox", "MUV",
                   "Tox21", "HIV"]


def _run():
    cfg = config()
    names = FULL_DOWNSTREAM if full_grid() else BENCH_DOWNSTREAM
    pretrain = load_pretrain_dataset("ZINC-2M", scale=cfg.dataset_scale,
                                     seed=0)
    downstream = [load_molecule_dataset(n, scale=cfg.dataset_scale, seed=0)
                  for n in names]
    finetune_epochs = max(6, cfg.graph_epochs // 2)
    rows = []

    rng = np.random.default_rng(0)
    fresh = GINEncoder(pretrain.num_features, 16, 2, rng=rng)
    no_pre = [finetune_roc_auc(fresh, ds, epochs=finetune_epochs, lr=3e-3,
                               test_fraction=0.75, seed=1)
              for ds in downstream]
    rows.append(["No Pre-Train"] + [f"{v:.1f}" for v in no_pre]
                + [f"{np.mean(no_pre):.1f}"])

    # Generative pretraining baselines of Table VI.
    for label, cls in [("AttrMasking", AttrMasking),
                       ("ContextPred", ContextPred)]:
        method = cls(pretrain.num_features, 16, 2,
                     rng=np.random.default_rng(0))
        from repro.run import GraphSteps, Trainer

        Trainer(method, GraphSteps(pretrain.graphs, batch_size=32, seed=0),
                epochs=max(3, cfg.graph_epochs // 2), lr=3e-3).fit()
        aucs = [finetune_roc_auc(method.encoder, ds,
                                 epochs=finetune_epochs, lr=3e-3,
                                 test_fraction=0.75, seed=1)
                for ds in downstream]
        rows.append([label] + [f"{v:.1f}" for v in aucs]
                    + [f"{np.mean(aucs):.1f}"])

    for label, cls in [("GraphCL", GraphCL), ("SimGRACE", SimGRACE)]:
        for suffix, weight in [("", 0.0), ("(f+g)", 0.5)]:
            method = build_graph_variant(cls, pretrain, weight, seed=0)
            result = run_transfer(
                method, pretrain.graphs, downstream,
                pretrain_epochs=max(3, cfg.graph_epochs // 2),
                finetune_epochs=finetune_epochs, lr=3e-3,
                repeats=max(1, len(cfg.seeds)), seed=1)
            rows.append([label + suffix]
                        + [f"{result[n]:.1f}" for n in names]
                        + [f"{result.average:.1f}"])

    report("table6", "Table VI: transfer learning ROC-AUC",
           ["Method"] + names + ["Avg."], rows,
           note="Shape targets: pretraining > no-pretrain on average; "
                "(f+g) lifts the average; per-dataset wins are mixed.")
    return rows


def test_table6_transfer(benchmark):
    rows = run_once(benchmark, _run)
    assert rows
