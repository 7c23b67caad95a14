"""Composite and structured differentiable operations.

These build on the :class:`~repro.tensor.tensor.Tensor` primitives and supply
what graph neural networks need beyond basic arithmetic:

* numerically stable ``softmax`` / ``log_softmax`` / ``logsumexp``;
* ``concat`` / ``stack`` for combining tensors;
* ``spmm`` — sparse (scipy) x dense matmul, the message-passing workhorse;
* ``segment_sum`` / ``segment_mean`` / ``segment_max`` — per-graph readout of
  node features in a block-diagonal batch;
* embedding-style ``gather_rows``;
* ``l2_normalize``, ``cosine_similarity_matrix``, ``pairwise_sqdist`` used by
  the contrastive losses.

``segment_sum`` dispatches to a ``np.add.reduceat`` kernel when the segment
ids are sorted (always true for block-diagonal batches), which is roughly an
order of magnitude faster than the ``np.add.at`` scatter it falls back to.
All ops preserve the dtype of their inputs so float32 graphs (see
:mod:`repro.tensor.dtype`) stay float32 end to end.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .tensor import Tensor, as_tensor

__all__ = [
    "concat", "stack", "spmm", "segment_sum", "segment_mean", "segment_max",
    "gather_rows", "logsumexp", "softmax", "log_softmax", "l2_normalize",
    "cosine_similarity_matrix", "pairwise_sqdist", "dot_rows", "where",
    "dropout_mask",
]


def _const(data: np.ndarray) -> Tensor:
    """Wrap an ndarray as a constant tensor preserving its dtype."""
    return Tensor(data, dtype=np.asarray(data).dtype)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        slicer = [slice(None)] * grad.ndim
        pieces = []
        for i in range(len(tensors)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        return tuple(np.take(grad, i, axis=axis) for i in range(len(tensors)))

    return Tensor._make(out_data, tensors, backward)


def spmm(matrix: sp.spmatrix, dense: Tensor) -> Tensor:
    """Multiply a constant scipy sparse matrix by a dense tensor.

    ``matrix`` is treated as a constant (adjacency structure), so only the
    dense operand receives a gradient: ``d(M @ X)/dX = M^T @ grad``.  The
    transpose is taken lazily inside the backward closure (as a CSC view, no
    copy), so inference-mode forwards pay nothing for it.
    """
    dense = as_tensor(dense)
    csr = matrix.tocsr()
    if csr.dtype != dense.data.dtype:
        csr = csr.astype(dense.data.dtype)
    out_data = csr @ dense.data

    def backward(grad):
        return (csr.T @ grad,)

    return Tensor._make(out_data, (dense,), backward)


def _segment_sum_kernel(values: np.ndarray, segment_ids: np.ndarray,
                        num_segments: int) -> np.ndarray:
    """Sum-readout forward shared by ``segment_sum``/``segment_mean``."""
    out_data = np.zeros((num_segments,) + values.shape[1:],
                        dtype=values.dtype)
    if segment_ids.size:
        if np.all(segment_ids[1:] >= segment_ids[:-1]):
            # Sorted ids (the block-diagonal batch layout): contiguous
            # reduction, ~10x faster than the np.add.at scatter.  reduceat
            # misbehaves on empty segments (repeated offsets), so reduce
            # only the nonempty ones and scatter into the zero output.
            starts, nonempty = _sorted_segment_bounds(segment_ids,
                                                      num_segments)
            reduced = np.add.reduceat(values, starts[nonempty], axis=0)
            out_data[nonempty] = reduced
        else:
            np.add.at(out_data, segment_ids, values)
    return out_data


def _sorted_segment_bounds(segment_ids: np.ndarray,
                           num_segments: int) -> tuple[np.ndarray, np.ndarray]:
    """(start offsets, nonempty mask) for sorted ids, for np.add.reduceat."""
    starts = np.searchsorted(segment_ids, np.arange(num_segments),
                             side="left")
    counts = np.bincount(segment_ids, minlength=num_segments)
    return starts, counts > 0


def segment_sum(values: Tensor, segment_ids: np.ndarray,
                num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    This is the sum-readout for a block-diagonal graph batch: row ``i`` of the
    output is the sum of node features whose ``segment_ids`` equal ``i``.
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_data = _segment_sum_kernel(values.data, segment_ids, num_segments)

    def backward(grad):
        return (grad[segment_ids],)

    return Tensor._make(out_data, (values,), backward)


def segment_mean(values: Tensor, segment_ids: np.ndarray,
                 num_segments: int) -> Tensor:
    """Mean-readout over segments; empty segments yield zeros.

    A single graph node computing exactly what the historical
    ``segment_sum(...) / counts`` composition computed (same kernel, same
    division, same gradient values).
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments).astype(
        values.data.dtype)
    counts = np.maximum(counts, 1.0).reshape(
        (num_segments,) + (1,) * (values.ndim - 1))
    out_data = _segment_sum_kernel(values.data, segment_ids,
                                   num_segments) / counts

    def backward(grad):
        return ((grad / counts)[segment_ids],)

    return Tensor._make(out_data, (values,), backward)


def segment_max(values: Tensor, segment_ids: np.ndarray,
                num_segments: int) -> Tensor:
    """Max-readout over segments (gradient flows to the argmax rows)."""
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    dtype = values.data.dtype
    out_shape = (num_segments,) + values.shape[1:]
    out_data = np.full(out_shape, -np.inf, dtype=dtype)
    np.maximum.at(out_data, segment_ids, values.data)
    out_data[np.isneginf(out_data)] = 0.0
    # Mask of rows/columns attaining the per-segment maximum.
    attains = (values.data == out_data[segment_ids])
    # Split ties evenly within a segment.
    tie_counts = np.zeros(out_shape, dtype=dtype)
    np.add.at(tie_counts, segment_ids, attains.astype(dtype))
    tie_counts = np.maximum(tie_counts, 1.0)

    def backward(grad):
        return (grad[segment_ids] * attains / tie_counts[segment_ids],)

    return Tensor._make(out_data, (values,), backward)


def gather_rows(values: Tensor, indices: np.ndarray) -> Tensor:
    """Select rows ``values[indices]`` with scatter-add backward."""
    values = as_tensor(values)
    indices = np.asarray(indices, dtype=np.int64)
    out_data = values.data[indices]
    original_shape = values.shape
    dtype = values.data.dtype

    def backward(grad):
        full = np.zeros(original_shape, dtype=dtype)
        np.add.at(full, indices, grad)
        return (full,)

    return Tensor._make(out_data, (values,), backward)


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Numerically stable log-sum-exp along ``axis``."""
    x = as_tensor(x)
    shift = _const(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    result = shifted.exp().sum(axis=axis, keepdims=True).log() + shift
    if not keepdims:
        result = result.reshape(tuple(
            s for i, s in enumerate(result.shape)
            if i != (axis % x.ndim)))
    return result


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - _const(x.data.max(axis=axis, keepdims=True))
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - _const(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows to unit L2 norm (safe at zero)."""
    x = as_tensor(x)
    norms = ((x * x).sum(axis=axis, keepdims=True) + eps).sqrt()
    return x / norms


def cosine_similarity_matrix(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs cosine similarity: result[i, j] = cos(a_i, b_j)."""
    return l2_normalize(a) @ l2_normalize(b).T


def dot_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot products: result[i] = <a_i, b_i>."""
    return (a * b).sum(axis=-1)


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs squared euclidean distances between rows of a and b."""
    a_sq = (a * a).sum(axis=-1, keepdims=True)            # (n, 1)
    b_sq = (b * b).sum(axis=-1, keepdims=True).T          # (1, m)
    cross = a @ b.T                                       # (n, m)
    return (a_sq + b_sq - cross * 2.0).clip(low=0.0)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection by a constant boolean mask."""
    a, b = as_tensor(a), as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad):
        zero = np.zeros((), dtype=grad.dtype)
        return (np.where(condition, grad, zero) * np.ones_like(a.data),
                np.where(condition, zero, grad) * np.ones_like(b.data))

    return Tensor._make(out_data, (a, b), backward)


def dropout_mask(shape: tuple[int, ...], rate: float,
                 rng: np.random.Generator) -> np.ndarray:
    """Sample an inverted-dropout mask (scaled so expectation is identity)."""
    from .dtype import get_default_dtype

    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(get_default_dtype()) / keep
