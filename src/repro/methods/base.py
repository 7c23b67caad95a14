"""Base classes for graph- and node-level contrastive methods.

Every method owns an encoder, a projection head, and a *contrastive
objective* (:class:`repro.core.ContrastiveObjective`).  GradGCL plugs in by
wrapping the objective (see :func:`repro.core.gradgcl`); methods whose loss
is not a simple paired-view contrast (InfoGraph, MVGRL, BGRL, GraphMAE)
override :meth:`training_loss` and use :meth:`combine_with_gradients` to stay
compatible with the plug-in.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core import GradGCLObjective
from ..graph import Graph, GraphBatch
from ..nn import Module
from ..obs import trace
from ..tensor import Tensor, no_grad

__all__ = ["GraphContrastiveMethod", "NodeContrastiveMethod"]


class GraphContrastiveMethod(Module):
    """A self-supervised method producing graph-level embeddings."""

    name = "graph-method"

    #: Optional :class:`repro.pipeline.ViewGenerator`; methods that generate
    #: views from immutable inputs (GraphCL family) set one in ``__init__``,
    #: methods whose views need live model state (RGCL) leave it ``None``.
    view_generator = None

    def training_loss(self, batch: GraphBatch) -> Tensor:
        """One minibatch's training loss (training mode assumed)."""
        raise NotImplementedError

    def graph_embeddings(self, batch: GraphBatch) -> Tensor:
        """Un-augmented graph embeddings used for downstream evaluation."""
        raise NotImplementedError

    def embed(self, graphs: Sequence[Graph], batch_size: int = 128) -> np.ndarray:
        """Embed graphs in eval mode with no autograd graph.

        Each chunk is one eager block-diagonal forward under ``no_grad``,
        the same forward :class:`repro.serve.FrozenEncoder` serves.
        """
        self.eval()
        chunks = []
        with trace("embed"), no_grad():
            for start in range(0, len(graphs), batch_size):
                batch = GraphBatch(list(graphs[start:start + batch_size]))
                chunks.append(self.graph_embeddings(batch).data)
        self.train()
        return np.concatenate(chunks, axis=0)

    # ------------------------------------------------------------------
    # GradGCL compatibility for non-paired losses
    # ------------------------------------------------------------------
    def combine_with_gradients(
            self, base_loss_fn: Callable[[], Tensor],
            gradient_loss_fn: Callable[[], Tensor]) -> Tensor:
        """Apply Eq. 18 when the objective is GradGCL-wrapped.

        ``base_loss_fn`` computes the method's own ``l_f``;
        ``gradient_loss_fn`` computes the method-specific ``l_g``.  Both are
        lazy so the a=0 / a=1 endpoints skip the unused branch entirely.
        """
        objective = self.objective
        if not isinstance(objective, GradGCLObjective):
            return base_loss_fn()
        total = None
        if objective.weight < 1.0:
            total = base_loss_fn() * (1.0 - objective.weight)
        if objective.weight > 0.0:
            term = gradient_loss_fn() * objective.weight
            total = term if total is None else total + term
        return total

    def on_epoch_end(self, epoch: int, epoch_loss: float) -> None:
        """Hook for schedule updates (JOAO's augmentation distribution)."""

    # ------------------------------------------------------------------
    # Checkpoint hooks (see repro.run.state.TrainState)
    # ------------------------------------------------------------------
    def training_state(self) -> dict:
        """JSON-able schedule state beyond parameters/RNG (default: none).

        Methods with mutable training-time state that parameters and the
        ``_rng`` stream do not capture (JOAO's augmentation distribution,
        RGCL's step counter) override this plus
        :meth:`load_training_state` so checkpoint/resume stays exact.
        """
        return {}

    def load_training_state(self, state: dict) -> None:
        """Reinstall state captured by :meth:`training_state`."""


class NodeContrastiveMethod(Module):
    """A self-supervised method producing node-level embeddings."""

    name = "node-method"

    view_generator = None

    def training_loss(self, graph: Graph) -> Tensor:
        raise NotImplementedError

    def node_embeddings(self, graph: Graph) -> Tensor:
        raise NotImplementedError

    def embed(self, graph: Graph) -> np.ndarray:
        self.eval()
        with trace("embed"), no_grad():
            out = self.node_embeddings(graph).data
        self.train()
        return out

    combine_with_gradients = GraphContrastiveMethod.combine_with_gradients
    training_state = GraphContrastiveMethod.training_state
    load_training_state = GraphContrastiveMethod.load_training_state

    def on_epoch_end(self, epoch: int, epoch_loss: float) -> None:
        """Hook for schedule updates (e.g. BGRL's EMA momentum)."""
