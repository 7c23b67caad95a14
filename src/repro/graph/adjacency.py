"""Sparse adjacency construction and normalizations for message passing."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..tensor.dtype import get_default_dtype
from .graph import Graph

__all__ = ["adjacency_matrix", "gcn_normalize", "row_normalize",
           "add_self_loops", "normalized_adjacency", "NORMALIZATIONS"]

#: Normalization names accepted by :func:`normalized_adjacency` and
#: :meth:`repro.graph.batch.GraphBatch.adjacency`.
NORMALIZATIONS = ("none", "gcn", "self_loops", "row")


def adjacency_matrix(graph: Graph, self_loops: bool = False) -> sp.csr_matrix:
    """Symmetric sparse adjacency (both edge directions materialized)."""
    n = graph.num_nodes
    dtype = get_default_dtype()
    if graph.num_edges:
        rows = np.concatenate([graph.edges[:, 0], graph.edges[:, 1]])
        cols = np.concatenate([graph.edges[:, 1], graph.edges[:, 0]])
        data = np.ones(len(rows), dtype=dtype)
        adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    else:
        adj = sp.csr_matrix((n, n), dtype=dtype)
    if self_loops:
        adj = add_self_loops(adj)
    return adj


def add_self_loops(adj: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I``."""
    return (adj + sp.identity(adj.shape[0], format="csr")).tocsr()


def _positive_degrees(adj: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Mask of nodes with positive degree, and the degrees with the others
    (isolated nodes) set to 1 so inverting them raises no divide-by-zero;
    callers zero those entries through the mask."""
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    positive = degrees > 0
    return positive, np.where(positive, degrees, 1)


def gcn_normalize(adj: sp.spmatrix, self_loops: bool = True) -> sp.csr_matrix:
    """Kipf-GCN symmetric normalization ``D^-1/2 (A + I) D^-1/2``."""
    if self_loops:
        adj = add_self_loops(adj)
    positive, degrees = _positive_degrees(adj)
    inv_sqrt = np.where(positive, degrees ** -0.5, 0.0)
    d_inv = sp.diags(inv_sqrt)
    return (d_inv @ adj @ d_inv).tocsr()


def row_normalize(adj: sp.spmatrix) -> sp.csr_matrix:
    """Random-walk normalization ``D^-1 A``."""
    positive, degrees = _positive_degrees(adj)
    inv = np.where(positive, 1.0 / degrees, 0.0)
    return (sp.diags(inv) @ adj).tocsr()


def normalized_adjacency(graph: Graph,
                         normalization: str = "none") -> sp.csr_matrix:
    """One-stop adjacency construction under a named normalization.

    This is the single dispatch point shared by :class:`GraphBatch` and the
    pipeline structure cache, so the name → operator mapping can never drift
    between the cached and uncached paths.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization: {normalization!r}")
    raw = adjacency_matrix(graph)
    if normalization == "none":
        return raw
    if normalization == "self_loops":
        return add_self_loops(raw)
    if normalization == "row":
        return row_normalize(raw)
    return gcn_normalize(raw)
