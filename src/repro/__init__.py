"""GradGCL: Gradient Graph Contrastive Learning — full reproduction.

This package reproduces *GradGCL: Gradient Graph Contrastive Learning*
(ICDE 2024) from scratch on numpy/scipy: a reverse-mode autodiff engine
(:mod:`repro.tensor`), GNN encoders (:mod:`repro.gnn`), graph augmentations
(:mod:`repro.augment`), eleven contrastive/generative baselines
(:mod:`repro.methods`), the GradGCL plug-in itself (:mod:`repro.core`),
synthetic stand-ins for the paper's benchmarks (:mod:`repro.datasets`), and
the full evaluation protocol (:mod:`repro.eval`).

Quickstart::

    import numpy as np
    from repro.datasets import load_tu_dataset
    from repro.core import gradgcl
    from repro.eval import evaluate_graph_embeddings
    from repro.methods import SimGRACE
    from repro.run import GraphSteps, Trainer

    dataset = load_tu_dataset("MUTAG")
    model = gradgcl(SimGRACE(dataset.num_features,
                             rng=np.random.default_rng(0)), weight=0.5)
    Trainer(model, GraphSteps(dataset.graphs), epochs=20).fit()
    acc, std = evaluate_graph_embeddings(model.embed(dataset.graphs),
                                         dataset.labels())
"""

__version__ = "0.1.0"

from . import augment, baselines, core, datasets, eval, gnn, graph, losses
from . import methods, nn, obs, pipeline, run, serve, tensor, utils

__all__ = ["augment", "baselines", "core", "datasets", "eval", "gnn",
           "graph", "losses", "methods", "nn", "obs", "pipeline", "run",
           "serve", "tensor", "utils", "__version__"]
