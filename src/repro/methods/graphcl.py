"""GraphCL (You et al. 2020): contrastive learning with graph augmentations.

Two stochastically augmented views of each graph are encoded by a shared GIN
encoder, projected, and pulled together with InfoNCE against in-batch
negatives.  This is the canonical data-augmentation-based GCL baseline the
paper enhances.
"""

from __future__ import annotations

import numpy as np

from ..augment import (
    AttributeMask,
    Augmentation,
    EdgePerturb,
    NodeDrop,
    RandomChoice,
    SubgraphSample,
)
from ..core import ContrastiveObjective, InfoNCEObjective
from ..gnn import GINEncoder, ProjectionHead
from ..graph import GraphBatch
from ..pipeline import ViewGenerator, spawn_root
from ..run.registry import register_method
from ..tensor import Tensor
from .base import GraphContrastiveMethod

__all__ = ["GraphCL", "default_augmentation"]


def default_augmentation() -> RandomChoice:
    """GraphCL's default pool: node drop / edge perturb / mask / subgraph."""
    return RandomChoice([
        NodeDrop(0.2),
        EdgePerturb(0.2),
        AttributeMask(0.2),
        SubgraphSample(0.8),
    ])


@register_method("GraphCL", level="graph")
class GraphCL(GraphContrastiveMethod):
    """GraphCL with a pluggable objective (GradGCL-ready).

    Parameters
    ----------
    in_features / hidden_dim / num_layers:
        GIN encoder configuration (graph embedding dim is
        ``hidden_dim * num_layers`` via jumping knowledge).
    augmentation / augmentation2:
        View generators; the second defaults to the same pool.
    objective:
        The contrastive objective; defaults to cosine InfoNCE at tau=0.5.
    """

    name = "GraphCL"

    def __init__(self, in_features: int, hidden_dim: int = 32,
                 num_layers: int = 3, *, rng: np.random.Generator,
                 augmentation: Augmentation | None = None,
                 augmentation2: Augmentation | None = None,
                 objective: ContrastiveObjective | None = None,
                 tau: float = 0.5):
        super().__init__()
        self.encoder = GINEncoder(in_features, hidden_dim, num_layers,
                                  rng=rng)
        self.projector = ProjectionHead(self.encoder.out_features, rng=rng)
        self.objective = (objective if objective is not None
                          else InfoNCEObjective(tau=tau, sim="cos"))
        self.augmentation = (augmentation if augmentation is not None
                             else default_augmentation())
        self.augmentation2 = (augmentation2 if augmentation2 is not None
                              else self.augmentation)
        self._rng = rng
        # Per-graph deterministic view streams (repro.pipeline): views
        # depend on the root and the batch counter only.  The root consumes
        # one draw from ``rng`` *after* all weight init, so parameters stay
        # byte-identical to the pre-pipeline era.
        self.view_generator = ViewGenerator(self.augmentation,
                                            self.augmentation2,
                                            root=spawn_root(rng))

    def _augmented_views(self, batch: GraphBatch) -> tuple[GraphBatch, GraphBatch]:
        generator = self.view_generator
        if generator is None:
            # Legacy shared-generator path (draws depend on iteration
            # order): kept for methods that opt out (RGCL) and as the
            # benchmark's pre-pipeline baseline.
            view1 = GraphBatch([self.augmentation(g, self._rng)
                                for g in batch.graphs])
            view2 = GraphBatch([self.augmentation2(g, self._rng)
                                for g in batch.graphs])
            return view1, view2
        pair = batch.__dict__.pop("_precomputed_views", None)
        if pair is None:
            pair = generator.generate(batch)
        return pair.view1, pair.view2

    def project_views(self, batch: GraphBatch) -> tuple[Tensor, Tensor]:
        """Projected graph embeddings of two fresh augmented views."""
        view1, view2 = self._augmented_views(batch)
        _, h1 = self.encoder(view1)
        _, h2 = self.encoder(view2)
        return self.projector(h1), self.projector(h2)

    def training_loss(self, batch: GraphBatch) -> Tensor:
        u, v = self.project_views(batch)
        return self.objective.loss(u, v)

    def graph_embeddings(self, batch: GraphBatch) -> Tensor:
        _, h = self.encoder(batch)
        return h
