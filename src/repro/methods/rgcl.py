"""RGCL (Li et al. 2022): rationale-aware graph contrastive learning.

RGCL discovers each graph's *rationale* — the subgraph that drives its
identity — and augments by preserving the rationale while perturbing the
rest, so the contrastive views never destroy the discriminative structure.

Our implementation computes node saliency from the model itself: the
gradient norm of the InfoNCE loss with respect to each node's features
(a Grad-CAM-style attribution, in the spirit of the paper's
invariant-rationale discovery).  Augmented views drop nodes *only among
the low-saliency environment*, keeping the top-``rationale_ratio`` fraction
intact.  Saliencies are refreshed every ``refresh_every`` steps to bound
the extra backward passes.
"""

from __future__ import annotations

import numpy as np

from ..core import ContrastiveObjective, InfoNCEObjective
from ..graph import Graph, GraphBatch
from ..run.registry import register_method
from ..tensor import Tensor
from .graphcl import GraphCL

__all__ = ["RGCL"]


@register_method("RGCL", level="graph")
class RGCL(GraphCL):
    """GraphCL with rationale-preserving node dropping."""

    name = "RGCL"

    def __init__(self, in_features: int, hidden_dim: int = 32,
                 num_layers: int = 3, *, rng: np.random.Generator,
                 rationale_ratio: float = 0.3, drop_ratio: float = 0.25,
                 refresh_every: int = 4,
                 objective: ContrastiveObjective | None = None,
                 tau: float = 0.5):
        super().__init__(in_features, hidden_dim, num_layers, rng=rng,
                         objective=objective, tau=tau)
        if not 0.0 < rationale_ratio < 1.0:
            raise ValueError(
                f"rationale_ratio must be in (0, 1), got {rationale_ratio}")
        if not 0.0 <= drop_ratio < 1.0:
            raise ValueError(
                f"drop_ratio must be in [0, 1), got {drop_ratio}")
        self.rationale_ratio = rationale_ratio
        self.drop_ratio = drop_ratio
        self.refresh_every = max(1, refresh_every)
        self._step = 0
        self._saliency_cache: dict[int, np.ndarray] = {}
        # RGCL's views depend on live encoder saliency, not on per-graph
        # streams alone; opt out of the view generator.
        self.view_generator = None

    # ------------------------------------------------------------------
    # Rationale discovery
    # ------------------------------------------------------------------
    def node_saliency(self, batch: GraphBatch) -> np.ndarray:
        """Per-node saliency: grad norm of the InfoNCE loss w.r.t. features.

        Uses the encoder as-is with a self-contrastive pass (each graph vs
        its feature-noised twin) so no labels are needed.
        """
        x = Tensor(batch.x, requires_grad=True)
        _, h = self.encoder(batch, x=x)
        u = self.projector(h)
        noisy = Tensor(batch.x
                       + 0.05 * self._rng.normal(size=batch.x.shape))
        _, h2 = self.encoder(batch, x=noisy)
        v = self.projector(h2)
        if batch.num_graphs < 2:
            raise ValueError("saliency needs at least 2 graphs in a batch")
        InfoNCEObjective(tau=0.5).loss(u, v).backward()
        grads = x.grad if x.grad is not None else np.zeros_like(batch.x)
        self.zero_grad()
        return np.linalg.norm(grads, axis=1)

    def _rationale_masks(self, batch: GraphBatch) -> list[np.ndarray]:
        """Boolean keep-always masks per graph (the rationale nodes)."""
        saliency = self.node_saliency(batch)
        masks = []
        for i, graph in enumerate(batch.graphs):
            lo, hi = batch.node_offsets[i], batch.node_offsets[i + 1]
            scores = saliency[lo:hi]
            keep = max(1, int(round(graph.num_nodes
                                    * self.rationale_ratio)))
            top = np.argsort(-scores)[:keep]
            mask = np.zeros(graph.num_nodes, dtype=bool)
            mask[top] = True
            masks.append(mask)
        return masks

    # ------------------------------------------------------------------
    # Rationale-preserving augmentation
    # ------------------------------------------------------------------
    def _augment_preserving(self, graph: Graph,
                            rationale: np.ndarray) -> Graph:
        environment = np.flatnonzero(~rationale)
        num_drop = int(round(len(environment) * self.drop_ratio))
        if num_drop == 0 or environment.size == 0:
            return graph.copy()
        dropped = self._rng.choice(environment, size=num_drop,
                                   replace=False)
        kept = np.setdiff1d(np.arange(graph.num_nodes), dropped)
        return graph.subgraph(kept)

    def project_views(self, batch: GraphBatch):
        self._step += 1
        if (self._step % self.refresh_every == 1
                or not self._saliency_cache):
            masks = self._rationale_masks(batch)
            self._saliency_cache = {id(g): m
                                    for g, m in zip(batch.graphs, masks)}
            self._last_masks = masks
        else:
            # Graphs differ across batches; recompute when unseen.
            masks = []
            refresh = False
            for g in batch.graphs:
                mask = self._saliency_cache.get(id(g))
                if mask is None:
                    refresh = True
                    break
                masks.append(mask)
            if refresh:
                masks = self._rationale_masks(batch)
                self._saliency_cache = {id(g): m
                                        for g, m in zip(batch.graphs, masks)}
        view1 = GraphBatch([self._augment_preserving(g, m)
                            for g, m in zip(batch.graphs, masks)])
        view2 = GraphBatch([self._augment_preserving(g, m)
                            for g, m in zip(batch.graphs, masks)])
        _, h1 = self.encoder(view1)
        _, h2 = self.encoder(view2)
        return self.projector(h1), self.projector(h2)

    # ------------------------------------------------------------------
    # Checkpoint hooks
    # ------------------------------------------------------------------
    def training_state(self) -> dict:
        """The refresh-schedule step counter.

        The ``id()``-keyed saliency cache cannot survive a process
        boundary (fresh objects get fresh ids), so a resumed RGCL run
        recomputes saliency on its first batch — deterministic, but not
        bit-identical to the uninterrupted run (see docs/architecture.md).
        """
        return {"step": int(self._step)}

    def load_training_state(self, state: dict) -> None:
        self._step = int(state["step"])
