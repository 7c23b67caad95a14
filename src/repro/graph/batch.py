"""Block-diagonal batching of graphs, mirroring PyG's ``Batch``.

Contrastive methods process minibatches of graphs in one forward pass; the
batch concatenates node features, offsets edge indices, and keeps a
``node_to_graph`` vector so readout can segment node embeddings back into
per-graph embeddings.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .adjacency import NORMALIZATIONS, normalized_adjacency
from .graph import Graph

__all__ = ["GraphBatch"]


class GraphBatch:
    """A batch of graphs merged into one disconnected graph.

    ``edges`` holds global node ids grouped by graph, in graph order.
    """

    def __init__(self, graphs: Sequence[Graph]):
        # len() rather than truthiness: ``graphs`` may be an object ndarray
        # (fancy-indexed by the loader), whose bool() is ambiguous.
        if len(graphs) == 0:
            raise ValueError("cannot batch an empty list of graphs")
        graphs = list(graphs)
        x, edges, sizes, _, labels = GraphBatch.concatenate(graphs)
        self._assign(x, edges, sizes, labels)
        self._graphs = graphs

    @staticmethod
    def concatenate(graphs: Sequence[Graph]) -> tuple[np.ndarray, ...]:
        """``(x, edges, sizes, edge_sizes, labels)`` of ``graphs`` joined.

        ``edges`` are offset to global node ids, grouped by graph;
        ``labels`` holds ``-1`` for graphs without one.
        """
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        edge_sizes = np.array([g.num_edges for g in graphs], dtype=np.int64)
        offsets = np.repeat(np.cumsum(sizes) - sizes, edge_sizes)
        edges = (np.concatenate([g.edges for g in graphs]).reshape(-1, 2)
                 + offsets[:, None])
        labels = np.array([(-1 if g.y is None else g.y) for g in graphs],
                          dtype=np.int64)
        return (np.concatenate([g.x for g in graphs], axis=0), edges, sizes,
                edge_sizes, labels)

    @classmethod
    def from_arrays(cls, x: np.ndarray, edges: np.ndarray,
                    sizes: np.ndarray, labels: np.ndarray) -> "GraphBatch":
        """A batch straight from concatenated arrays (no ``Graph`` objects).

        ``edges`` must already be offset to global node ids and grouped by
        graph; ``sizes`` holds each graph's node count.  ``graphs`` is then
        materialized from the arrays on first access.
        """
        if len(sizes) == 0:
            raise ValueError("cannot batch an empty list of graphs")
        batch = object.__new__(cls)
        batch._assign(x, edges, sizes, labels)
        batch._graphs = None
        return batch

    def _assign(self, x, edges, sizes, labels) -> None:
        self.num_graphs = len(sizes)
        self.node_offsets = np.concatenate([[0], np.cumsum(sizes)])
        self.num_nodes = int(self.node_offsets[-1])
        self.x = x
        self.node_to_graph = np.repeat(np.arange(self.num_graphs), sizes)
        self.edges = edges
        self.labels = labels
        self._adj_cache: dict[str, sp.csr_matrix] = {}

    @property
    def graphs(self) -> list[Graph]:
        """The member graphs (rebuilt from the arrays for array batches)."""
        if self._graphs is None:
            counts = np.bincount(self.node_to_graph[self.edges[:, 0]],
                                 minlength=self.num_graphs)
            edge_offsets = np.concatenate([[0], np.cumsum(counts)])
            self._graphs = [
                Graph._from_parts(
                    int(hi - lo),
                    self.edges[edge_offsets[i]:edge_offsets[i + 1]] - lo,
                    self.x[lo:hi].copy(),
                    None if self.labels[i] == -1 else int(self.labels[i]),
                    None)
                for i, (lo, hi) in enumerate(zip(self.node_offsets[:-1],
                                                 self.node_offsets[1:]))]
        return self._graphs

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def _as_graph(self) -> Graph:
        # Member graphs were validated when built; skip the re-checks.
        return Graph._from_parts(self.num_nodes, self.edges, self.x, None,
                                 None)

    def adjacency(self, normalization: str = "gcn") -> sp.csr_matrix:
        """Return the (memoized) block-diagonal adjacency.

        ``normalization`` is one of ``"none"`` (raw symmetric A), ``"gcn"``
        (``D^-1/2 (A+I) D^-1/2``), ``"self_loops"`` (``A + I``), or
        ``"row"`` (``D^-1 A``).

        The matrix is built in one pass from the concatenated, offset edge
        array.  Every supported normalization is block-local (degrees never
        cross graph boundaries in a disconnected batch), so it is entrywise
        identical to ``block_diag`` of the per-graph matrices.  No structure
        cache is consulted: augmented views are new structures every step,
        and one direct build beats per-graph lookups plus block assembly.
        """
        if normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization: {normalization!r}")
        if normalization not in self._adj_cache:
            self._adj_cache[normalization] = normalized_adjacency(
                self._as_graph(), normalization)
        return self._adj_cache[normalization]

    def graph_sizes(self) -> np.ndarray:
        return np.diff(self.node_offsets)
