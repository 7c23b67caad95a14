"""MVGRL (Hassani & Khasahmadi 2020): multi-view contrast with diffusion.

The two structural views are the plain adjacency and a personalized-PageRank
diffusion of it.  Node embeddings of one view are contrasted against graph
embeddings of the *other* view with the JSD estimator (both directions).

GradGCL attachment: the natural paired views are the two graph embeddings
(adjacency view vs diffusion view), so the gradient loss contrasts the JSD
gradient features of that pair (paper plugs GradGCL into MVGRL for both
graph- and node-level tasks).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..core import (
    ContrastiveObjective,
    GradGCLObjective,
    JSDObjective,
)
from ..gnn import GCNConv, ProjectionHead, readout
from ..graph import Graph, GraphBatch, adjacency_matrix, gcn_normalize, ppr_diffusion
from ..losses import info_nce, jsd_bipartite_loss
from ..nn import ModuleList, PReLU
from ..pipeline import active_structure_cache
from ..run.registry import register_method
from ..tensor import Tensor, concat
from ..utils.seed import seeded_rng
from .base import GraphContrastiveMethod, NodeContrastiveMethod

__all__ = ["MVGRL", "MVGRLNode"]


def _batch_diffusion(batch: GraphBatch, alpha: float) -> sp.csr_matrix:
    """Block-diagonal PPR diffusion over a batch of graphs.

    The dense per-graph PPR solve dominates MVGRL's epoch time; with an
    active :class:`repro.pipeline.StructureCache` each graph's diffusion is
    solved once and reused across batches and epochs.
    """
    cache = active_structure_cache()
    if cache is not None:
        blocks = [cache.ppr(g, alpha=alpha) for g in batch.graphs]
    else:
        blocks = [sp.csr_matrix(ppr_diffusion(g, alpha=alpha))
                  for g in batch.graphs]
    return sp.block_diag(blocks, format="csr")


class _GCNStack(ModuleList):
    """Small GCN tower with PReLU activations shared by both views."""

    def __init__(self, dims: list[int], rng: np.random.Generator):
        super().__init__([GCNConv(dims[i], dims[i + 1], rng=rng)
                          for i in range(len(dims) - 1)])
        self.acts = ModuleList([PReLU() for _ in range(len(dims) - 1)])

    def encode(self, x: Tensor, adj: sp.spmatrix) -> Tensor:
        h = x
        for layer, act in zip(self.items, self.acts):
            h = act(layer(h, adj))
        return h


@register_method("MVGRL", level="graph")
class MVGRL(GraphContrastiveMethod):
    """Graph-level MVGRL with a GradGCL-compatible objective."""

    name = "MVGRL"

    def __init__(self, in_features: int, hidden_dim: int = 32,
                 num_layers: int = 2, *, rng: np.random.Generator,
                 alpha: float = 0.2,
                 objective: ContrastiveObjective | None = None):
        super().__init__()
        dims = [in_features] + [hidden_dim] * num_layers
        self.adj_encoder = _GCNStack(dims, rng)
        self.diff_encoder = _GCNStack(dims, rng)
        self.local_projector = ProjectionHead(hidden_dim, rng=rng)
        self.global_projector = ProjectionHead(hidden_dim, rng=rng)
        self.objective = objective if objective is not None else JSDObjective()
        self.alpha = alpha

    def _encode_views(self, batch: GraphBatch):
        x = Tensor(batch.x)
        adj = batch.adjacency("gcn")
        diff = _batch_diffusion(batch, self.alpha)
        node_adj = self.adj_encoder.encode(x, adj)
        node_diff = self.diff_encoder.encode(x, diff)
        graph_adj = readout(node_adj, batch.node_to_graph, batch.num_graphs,
                            "mean")
        graph_diff = readout(node_diff, batch.node_to_graph,
                             batch.num_graphs, "mean")
        return node_adj, node_diff, graph_adj, graph_diff

    def training_loss(self, batch: GraphBatch) -> Tensor:
        node_adj, node_diff, graph_adj, graph_diff = self._encode_views(batch)
        local_a = self.local_projector(node_adj)
        local_d = self.local_projector(node_diff)
        global_a = self.global_projector(graph_adj)
        global_d = self.global_projector(graph_diff)
        mask = (batch.node_to_graph[:, None]
                == np.arange(batch.num_graphs)[None, :])

        def base_loss():
            # Cross-view local-global contrast, both directions.
            return (jsd_bipartite_loss(local_a, global_d, mask)
                    + jsd_bipartite_loss(local_d, global_a, mask))

        def gradient_loss():
            objective = self.objective
            assert isinstance(objective, GradGCLObjective)
            g_a, g_d = objective.base.gradient_features(global_a, global_d)
            if objective.detach_features:
                g_a, g_d = g_a.detach(), g_d.detach()
            return info_nce(g_a, g_d, tau=objective.grad_tau,
                            sim=objective.grad_sim)

        return self.combine_with_gradients(base_loss, gradient_loss)

    def graph_embeddings(self, batch: GraphBatch) -> Tensor:
        _, __, graph_adj, graph_diff = self._encode_views(batch)
        return concat([graph_adj, graph_diff], axis=1)


@register_method("MVGRL", level="node")
class MVGRLNode(NodeContrastiveMethod):
    """Node-level MVGRL (DGI-style) for the node-classification tables."""

    name = "MVGRL"

    def __init__(self, in_features: int, hidden_dim: int = 64, *,
                 rng: np.random.Generator, alpha: float = 0.2,
                 objective: ContrastiveObjective | None = None):
        super().__init__()
        dims = [in_features, hidden_dim]
        self.adj_encoder = _GCNStack(dims, rng)
        self.diff_encoder = _GCNStack(dims, rng)
        self.objective = objective if objective is not None else JSDObjective()
        self.alpha = alpha
        self._cache: dict[int, tuple] = {}

    def _operators(self, graph: Graph):
        key = id(graph)
        if key not in self._cache:
            adj = gcn_normalize(adjacency_matrix(graph))
            cache = active_structure_cache()
            diff = (cache.ppr(graph, alpha=self.alpha) if cache is not None
                    else sp.csr_matrix(ppr_diffusion(graph, alpha=self.alpha)))
            self._cache = {key: (adj, diff)}  # cache only the current graph
        return self._cache[key]

    def _encode(self, graph: Graph):
        adj, diff = self._operators(graph)
        x = Tensor(graph.x)
        node_adj = self.adj_encoder.encode(x, adj)
        node_diff = self.diff_encoder.encode(x, diff)
        return node_adj, node_diff

    def training_loss(self, graph: Graph) -> Tensor:
        node_adj, node_diff = self._encode(graph)
        summary_adj = node_adj.mean(axis=0, keepdims=True).sigmoid()
        summary_diff = node_diff.mean(axis=0, keepdims=True).sigmoid()
        n = graph.num_nodes
        mask = np.ones((n, 1), dtype=bool)
        # Corruption: shuffled features as negatives (DGI-style), realised by
        # contrasting true nodes against the summary of the other view while
        # shuffled nodes provide the negative scores.
        perm = seeded_rng(n).permutation(n)
        corrupt_adj = node_adj[perm]
        corrupt_diff = node_diff[perm]

        def one_direction(pos_nodes, neg_nodes, summary):
            local = concat([pos_nodes, neg_nodes], axis=0)
            full_mask = np.concatenate([mask, ~mask], axis=0)
            return jsd_bipartite_loss(local, summary, full_mask)

        def base_loss():
            return (one_direction(node_adj, corrupt_adj, summary_diff)
                    + one_direction(node_diff, corrupt_diff, summary_adj))

        def gradient_loss():
            objective = self.objective
            assert isinstance(objective, GradGCLObjective)
            anchors = _subsample_rows(node_adj, node_diff, limit=256)
            g_a, g_d = JSDObjective().gradient_features(*anchors)
            if objective.detach_features:
                g_a, g_d = g_a.detach(), g_d.detach()
            return info_nce(g_a, g_d, tau=objective.grad_tau,
                            sim=objective.grad_sim)

        return self.combine_with_gradients(base_loss, gradient_loss)

    def node_embeddings(self, graph: Graph) -> Tensor:
        node_adj, node_diff = self._encode(graph)
        return concat([node_adj, node_diff], axis=1)


def _subsample_rows(a: Tensor, b: Tensor, limit: int) -> tuple[Tensor, Tensor]:
    """Deterministically subsample matching rows of two tensors."""
    n = len(a)
    if n <= limit:
        return a, b
    idx = np.linspace(0, n - 1, limit).astype(np.int64)
    return a[idx], b[idx]
