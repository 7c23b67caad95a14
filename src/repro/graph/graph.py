"""The in-memory graph container used throughout the library.

A :class:`Graph` stores node features, an undirected edge list, and an
optional label — the same information PyG's ``Data`` object carries for the
paper's workloads.  Edges are stored canonically (each undirected edge once,
``u < v``); adjacency construction materializes both directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

__all__ = ["Graph"]


@dataclass
class Graph:
    """An attributed, undirected graph.

    Attributes
    ----------
    num_nodes:
        Node count; node ids are ``0..num_nodes-1``.
    edges:
        Integer array of shape ``(E, 2)`` with each undirected edge stored
        once (``u < v``, no self loops, no duplicates).
    x:
        Node feature matrix of shape ``(num_nodes, d)``.
    y:
        Optional integer class label (graph-level tasks) or ``None``.
    node_y:
        Optional per-node labels of shape ``(num_nodes,)`` (node-level tasks).
    """

    num_nodes: int
    edges: np.ndarray
    x: np.ndarray
    y: int | None = None
    node_y: np.ndarray | None = None

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.shape[0] != self.num_nodes:
            raise ValueError(
                f"feature rows ({self.x.shape[0]}) != num_nodes "
                f"({self.num_nodes})")
        if self.edges.size and (self.edges.min() < 0
                                or self.edges.max() >= self.num_nodes):
            raise ValueError("edge endpoint out of range")
        if self.edges.size and (self.edges[:, 0] == self.edges[:, 1]).any():
            raise ValueError("self loops are not allowed in the edge list")

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def degrees(self) -> np.ndarray:
        """Undirected node degrees."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def edge_set(self) -> set[tuple[int, int]]:
        """Canonical (u < v) edge tuples as a set."""
        if not self.edges.size:
            return set()
        lo = self.edges.min(axis=1)
        hi = self.edges.max(axis=1)
        return set(zip(lo.tolist(), hi.tolist()))

    def copy(self) -> "Graph":
        return Graph._from_parts(
            self.num_nodes, self.edges.copy(), self.x.copy(), self.y,
            None if self.node_y is None else self.node_y.copy())

    @classmethod
    def _from_parts(cls, num_nodes: int, edges: np.ndarray, x: np.ndarray,
                    y: int | None, node_y: np.ndarray | None) -> "Graph":
        """Internal constructor for data already in validated, canonical
        form (skips ``__post_init__``'s conversions and checks)."""
        graph = object.__new__(cls)
        graph.num_nodes = num_nodes
        graph.edges = edges
        graph.x = x
        graph.y = y
        graph.node_y = node_y
        return graph

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @staticmethod
    def canonical_edges(edges: np.ndarray) -> np.ndarray:
        """Deduplicate and canonicalize an edge array to (u < v) form."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size == 0:
            return edges
        edges = edges[edges[:, 0] != edges[:, 1]]
        lo = edges.min(axis=1)
        hi = edges.max(axis=1)
        if not len(lo):
            return np.empty((0, 2), dtype=np.int64)
        # Row-wise unique via a scalar key: lexicographic order on (lo, hi)
        # equals numeric order on lo * base + hi for any base > max(hi), so
        # this matches np.unique(..., axis=0) without its slow void-view sort.
        base = int(hi.max()) + 1
        keys = np.sort(lo * base + hi)
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        return np.stack([keys // base, keys % base], axis=1)

    @classmethod
    def from_networkx(cls, g: nx.Graph, x: np.ndarray | None = None,
                      y: int | None = None) -> "Graph":
        """Build from a networkx graph (nodes relabelled to 0..n-1)."""
        g = nx.convert_node_labels_to_integers(g)
        n = g.number_of_nodes()
        edges = cls.canonical_edges(np.array(list(g.edges()), dtype=np.int64)
                                    if g.number_of_edges() else
                                    np.empty((0, 2), dtype=np.int64))
        if x is None:
            # Default feature: normalized degree (one column), a common
            # fallback for featureless social-network datasets.
            deg = np.zeros(n)
            for node, d in g.degree():
                deg[node] = d
            x = deg.reshape(-1, 1) / max(deg.max(), 1.0)
        return cls(n, edges, x, y)

    def to_networkx(self) -> nx.Graph:
        g = nx.Graph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(map(tuple, self.edges))
        return g

    def subgraph(self, nodes: np.ndarray) -> "Graph":
        """Induced subgraph on ``nodes`` (relabelled to 0..k-1)."""
        keep = np.zeros(self.num_nodes, dtype=bool)
        keep[np.asarray(nodes, dtype=np.int64)] = True
        edges, _ = Graph.induced_edges(self.edges, keep)
        node_y = None if self.node_y is None else self.node_y[keep]
        # Relabelling preserves canonical form (nodes ascending keeps u < v),
        # so the validated fast constructor applies.
        return Graph._from_parts(int(keep.sum()), edges, self.x[keep],
                                 self.y, node_y)

    @staticmethod
    def induced_edges(edges: np.ndarray,
                      keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Edges among the ``keep`` nodes, relabelled to ``0..k-1``.

        Survivors keep their relative order, as do the edges.  Returns the
        relabelled edges and the mask of surviving input edges.
        """
        new_index = np.cumsum(keep) - 1
        surviving = keep[edges[:, 0]] & keep[edges[:, 1]]
        return new_index[edges[surviving]], surviving
