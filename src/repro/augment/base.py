"""Augmentation interface.

An augmentation is a callable ``(graph, rng) -> graph`` producing a perturbed
view of the input (the ``Pert`` operator of the paper's Sec. II-C).  All
randomness comes from the explicit generator so views are reproducible.

Most augmentations are :class:`BatchedAugmentation` subclasses: their work
splits into a per-graph ``draw`` that consumes the graph's random stream
and a deterministic ``apply`` that edits a whole chunk of graphs at once
as concatenated arrays (:class:`ViewArrays`), the way PyGCL's augmentors
act on one batched ``(x, edge_index)`` tuple.  Calling such an
augmentation on one graph is the one-graph case of the same code.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..graph import Graph, GraphBatch

__all__ = ["Augmentation", "BatchedAugmentation", "Identity", "ViewArrays"]


@runtime_checkable
class Augmentation(Protocol):
    """Structural typing for augmentations: callable graph transforms."""

    name: str

    def __call__(self, graph: Graph, rng: np.random.Generator) -> Graph:
        ...


class ViewArrays:
    """A chunk of graphs as concatenated arrays, edited in place.

    ``x`` holds every node row, ``edges`` global node ids grouped by graph
    in graph order, ``sizes`` / ``edge_sizes`` the node / edge count of each
    graph.  ``labels`` (graph labels, ``-1`` for none) never change;
    ``node_y`` (per-node labels, ``None`` unless every graph has them)
    follows node removal.
    """

    def __init__(self, graphs: Sequence[Graph]):
        (self.x, self.edges, self.sizes, self.edge_sizes,
         self.labels) = GraphBatch.concatenate(graphs)
        node_y = [g.node_y for g in graphs]
        self.node_y = (None if any(y is None for y in node_y)
                       else np.concatenate(node_y))

    def node_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.sizes)])

    def edge_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.edge_sizes)])

    def node_graph_ids(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    def edge_graph_ids(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.sizes)), self.edge_sizes)

    def keep_nodes(self, plans: Sequence[np.ndarray | None]) -> None:
        """Induced subgraphs: graph ``i`` keeps local nodes ``plans[i]``.

        Survivors keep their relative order and edges keep theirs, exactly
        as :meth:`Graph.subgraph` relabels one graph; ``None`` keeps all.
        """
        offsets = self.node_offsets()
        keep = np.ones(int(offsets[-1]), dtype=bool)
        for i, nodes in enumerate(plans):
            if nodes is not None:
                keep[offsets[i]:offsets[i + 1]] = False
                keep[offsets[i] + nodes] = True
        edge_graph = self.edge_graph_ids()
        self.edges, surviving = Graph.induced_edges(self.edges, keep)
        self.edge_sizes = np.bincount(edge_graph[surviving],
                                      minlength=len(self.sizes))
        self.sizes = np.bincount(self.node_graph_ids()[keep],
                                 minlength=len(self.sizes))
        self.x = self.x[keep]
        if self.node_y is not None:
            self.node_y = self.node_y[keep]

    def zero_features(self, plans: Sequence[np.ndarray | None]) -> None:
        """Zero graph ``i``'s feature entries where ``plans[i]`` is true.

        A plan is a ``(nodes, features)`` mask or a ``(features,)`` column
        mask broadcast over the graph's rows; ``None`` leaves it unmasked.
        """
        offsets = self.node_offsets()
        mask = np.zeros(self.x.shape, dtype=bool)
        for i, plan in enumerate(plans):
            if plan is not None:
                mask[offsets[i]:offsets[i + 1]] = plan
        self.x = np.where(mask, 0.0, self.x)

    def to_batch(self) -> GraphBatch:
        return GraphBatch.from_arrays(self.x, self.edges, self.sizes,
                                      self.labels)


class BatchedAugmentation:
    """An augmentation split into per-graph draws and one batched apply.

    ``draw(graph, rng)`` consumes the graph's random stream and returns a
    plan (``None`` leaves the graph unchanged); ``apply(views, plans)``
    carries out every plan of a :class:`ViewArrays` chunk at once.
    """

    batched = True

    def draw(self, graph: Graph, rng: np.random.Generator):
        raise NotImplementedError

    def apply(self, views: ViewArrays, plans: list) -> None:
        raise NotImplementedError

    def __call__(self, graph: Graph, rng: np.random.Generator) -> Graph:
        views = ViewArrays([graph])
        self.apply(views, [self.draw(graph, rng)])
        return Graph._from_parts(int(views.sizes[0]), views.edges, views.x,
                                 graph.y, views.node_y)


class Identity(BatchedAugmentation):
    """No-op augmentation (used by MVGRL's anchor view and in ablations)."""

    name = "identity"

    def draw(self, graph: Graph, rng: np.random.Generator) -> None:
        return None

    def apply(self, views: ViewArrays, plans: list) -> None:
        pass
