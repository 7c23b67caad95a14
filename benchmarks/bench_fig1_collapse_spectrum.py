"""Fig. 1: singular-value spectra showing dimensional collapse.

Pretrains SimGRACE and GraphCL on an IMDB-B-style dataset at several
embedding dimensions and reports the covariance singular spectrum summary:
effective rank and the number of (near-)zero singular values.

Shape target (paper): at every dimension a large tail of the spectrum is
(near) zero — the representations occupy a low-dimensional subspace, and
the collapsed tail grows with the embedding dimension.
"""

import numpy as np

from repro.core import (
    effective_rank,
    log_spectrum,
    num_collapsed_dimensions,
)
from repro.datasets import load_tu_dataset
from repro.methods import SimGRACE
from repro.run import GraphSteps, Trainer

from .common import config, full_grid, report, run_once

BENCH_DIMS = [40, 80]          # graph-embedding dims (hidden * layers)
FULL_DIMS = [80, 160, 320, 640]


def _run():
    cfg = config()
    dims = FULL_DIMS if full_grid() else BENCH_DIMS
    dataset = load_tu_dataset("IMDB-B", scale=cfg.dataset_scale, seed=0)
    rows = []
    for dim in dims:
        rng = np.random.default_rng(0)
        method = SimGRACE(dataset.num_features, hidden_dim=dim // 2,
                          num_layers=2, rng=rng, perturb_magnitude=0.5)
        # Collapse regime: weight decay + extended training (see DESIGN.md).
        Trainer(method, GraphSteps(dataset.graphs, batch_size=64, seed=0),
                epochs=3 * cfg.graph_epochs, lr=3e-3, weight_decay=3e-2).fit()
        emb = method.embed(dataset.graphs)
        spectrum = log_spectrum(emb)
        rows.append([f"dim={dim}",
                     f"{effective_rank(emb):.2f}",
                     num_collapsed_dimensions(emb, tol=1e-4),
                     f"{spectrum[0]:.2f}", f"{spectrum[-1]:.2f}"])
    report("fig1", "Fig. 1: covariance singular spectrum vs embedding dim",
           ["Embedding", "Effective rank", "Collapsed dims",
            "log10 top sigma", "log10 tail sigma"], rows,
           note="Shape target: collapsed tail present at every dim and "
                "growing with it; effective rank << dim.")
    return rows


def test_fig1_collapse_spectrum(benchmark):
    rows = run_once(benchmark, _run)
    # The paper's premise: effective rank is far below the dimension.
    for row in rows:
        dim = int(row[0].split("=")[1])
        assert float(row[1]) < dim / 2
