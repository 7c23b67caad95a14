"""Transfer-learning pipeline (paper Sec. IV-C, Table VI).

Pretrain a contrastive method on an unlabelled corpus, then finetune the
encoder plus a fresh linear head on each downstream dataset and report
ROC-AUC — the MoleculeNet protocol with GIN encoders used by GraphCL and
SimGRACE.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..datasets import GraphDataset
from ..eval import roc_auc
from ..gnn import GINEncoder
from ..graph import Graph, GraphBatch, GraphLoader
from ..nn import Adam, Linear
from ..run import GraphSteps, Trainer
from ..tensor import log_softmax, no_grad
from ..utils.seed import seeded_rng
from .base import GraphContrastiveMethod

__all__ = ["finetune_roc_auc", "TransferResult", "run_transfer"]


def _split(dataset: GraphDataset, test_fraction: float,
           rng: np.random.Generator) -> tuple[list[Graph], list[Graph]]:
    order = rng.permutation(len(dataset))
    cut = max(1, int(round(len(dataset) * test_fraction)))
    test = [dataset[i] for i in order[:cut]]
    train = [dataset[i] for i in order[cut:]]
    return train, test


def finetune_roc_auc(encoder: GINEncoder, dataset: GraphDataset, *,
                     epochs: int = 10, lr: float = 1e-3,
                     batch_size: int = 32, test_fraction: float = 0.25,
                     seed: int = 0, freeze_encoder: bool = False) -> float:
    """Finetune ``encoder`` + linear head on ``dataset``; return ROC-AUC.

    The encoder is cloned so the caller's pretrained weights are untouched
    (every downstream dataset starts from the same pretrain checkpoint).
    """
    if dataset.num_classes != 2:
        raise ValueError("transfer evaluation expects binary datasets")
    rng = seeded_rng(seed)
    train_graphs, test_graphs = _split(dataset, test_fraction, rng)
    model = encoder.clone()
    head = Linear(model.out_features, 2, rng=rng)
    params = head.parameters() if freeze_encoder else (model.parameters()
                                                       + head.parameters())
    optimizer = Adam(params, lr=lr)
    loader = GraphLoader(train_graphs, batch_size=batch_size, shuffle=True,
                         rng=rng)
    model.train()
    for _ in range(epochs):
        for batch in loader:
            optimizer.zero_grad()
            _, h = model(batch)
            logits = head(h)
            log_probs = log_softmax(logits, axis=1)
            labels = batch.labels
            nll = -log_probs[np.arange(batch.num_graphs), labels].mean()
            nll.backward()
            optimizer.step()

    model.eval()
    with no_grad():
        batch = GraphBatch(test_graphs)
        _, h = model(batch)
        logits = head(h).data
    scores = logits[:, 1] - logits[:, 0]
    labels = np.array([g.y for g in test_graphs])
    return 100.0 * roc_auc(scores, labels)


class TransferResult(dict):
    """dataset name -> mean ROC-AUC mapping with an ``average`` property."""

    @property
    def average(self) -> float:
        return float(np.mean(list(self.values())))


def run_transfer(method: GraphContrastiveMethod,
                 pretrain_graphs: Sequence[Graph],
                 downstream: Sequence[GraphDataset], *,
                 pretrain_epochs: int = 5, finetune_epochs: int = 8,
                 batch_size: int = 32, lr: float = 1e-3, repeats: int = 2,
                 test_fraction: float = 0.75, seed: int = 0) -> TransferResult:
    """Pretrain once, finetune on every downstream dataset; mean over repeats.

    ``test_fraction`` defaults to 0.75 — a *low-finetune-data* regime, which
    is where pretraining quality matters (with abundant downstream labels a
    from-scratch encoder catches up and the comparison saturates).
    """
    Trainer(method, GraphSteps(list(pretrain_graphs), batch_size=batch_size,
                               seed=seed),
            epochs=pretrain_epochs, lr=lr).fit()
    result = TransferResult()
    for dataset in downstream:
        scores = [finetune_roc_auc(method.encoder, dataset,
                                   epochs=finetune_epochs, lr=lr,
                                   batch_size=batch_size,
                                   test_fraction=test_fraction,
                                   seed=seed + r)
                  for r in range(repeats)]
        result[dataset.name] = float(np.mean(scores))
    return result
