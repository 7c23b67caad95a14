"""Fused forward+backward kernels for the contrastive hot path.

Profiling the training loop shows a handful of op chains dominating: the
InfoNCE pipeline (l2-normalize -> similarity matrix -> log-softmax -> diag
NLL), the Eq. 6 gradient-feature combination (softmax-weighted candidate
mixing), the linear(+bias)(+relu) stack inside every GIN/GCN layer, and the
training-mode batch norm in every GIN layer's MLP.
Composed from primitives each chain allocates a dozen interior nodes and
re-derives gradients numerically equivalent to closed forms we know on
paper.  The kernels here collapse each chain into a *single* autograd node
with a hand-written closed-form backward: one forward allocation, one
backward pass, no interior bookkeeping.

Every kernel has an unfused reference composition elsewhere in the library
(``repro.losses.infonce``, ``repro.core.gradient_features``,
``repro.nn.layers``); dispatch between the two lives in
:mod:`repro.tensor.registry` (``REPRO_FUSED=0`` in the environment selects
the reference path globally), and
``benchmarks/bench_tensor_ops.py`` asserts fused == reference before timing
so speedups cannot silently change numerics.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _matmul, as_tensor

__all__ = [
    "fused_l2_normalize", "fused_linear", "fused_info_nce",
    "fused_gradient_features", "fused_segment_mean", "fused_batch_norm",
    "batch_moments",
]


def _normalize_fwd(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalized array and the (keepdims) norms, matching l2_normalize."""
    norms = np.sqrt((x * x).sum(axis=-1, keepdims=True) + eps)
    return x / norms, norms


def _normalize_bwd(grad_unit: np.ndarray, unit: np.ndarray,
                   norms: np.ndarray) -> np.ndarray:
    """Adjoint of x -> x / sqrt(|x|^2 + eps) given the cached forward."""
    inner = (grad_unit * unit).sum(axis=-1, keepdims=True)
    return (grad_unit - unit * inner) / norms


def fused_l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise L2 normalization as a single autograd node.

    Equivalent to :func:`repro.tensor.l2_normalize` with ``axis=-1``.
    """
    x = as_tensor(x)
    unit, norms = _normalize_fwd(x.data, eps)

    def backward(grad):
        return (_normalize_bwd(grad, unit, norms),)

    return Tensor._make(unit, (x,), backward)


def fused_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                 activation: str | None = None) -> Tensor:
    """``relu?(x @ W + b)`` as one autograd node with closed-form backward.

    Equivalent to the ``Linear``(+``ReLU``) composition in
    :mod:`repro.nn.layers` for 2-D inputs.
    """
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported activation {activation!r}")
    x, weight = as_tensor(x), as_tensor(weight)
    if x.ndim != 2:
        raise ValueError(f"fused_linear expects 2-D input, got {x.shape}")
    out_data = _matmul(x.data, weight.data)
    if bias is not None:
        out_data += bias.data
    mask = None
    if activation == "relu":
        mask = out_data > 0
        out_data = out_data * mask
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if mask is not None:
            grad = grad * mask
        grad_x = grad @ weight.data.T
        grad_w = x.data.T @ grad
        if bias is None:
            return (grad_x, grad_w)
        return (grad_x, grad_w, grad.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


def _similarity_fwd(u: np.ndarray, v: np.ndarray, tau: float,
                    sim: str) -> tuple[np.ndarray, dict]:
    """Logits ``sim(u, v)/tau`` plus the cache the adjoint needs."""
    cache: dict = {}
    if sim == "cos":
        uh, un = _normalize_fwd(u, 1e-12)
        vh, vn = _normalize_fwd(v, 1e-12)
        cache.update(uh=uh, vh=vh, un=un, vn=vn)
        logits = (uh @ vh.T) / tau
    elif sim == "dot":
        logits = (u @ v.T) / tau
    elif sim == "euclid":
        sq = ((u * u).sum(axis=-1, keepdims=True)
              + (v * v).sum(axis=-1, keepdims=True).T
              - 2.0 * (u @ v.T))
        # Reference pairwise_sqdist clips negatives; its clip gradient is
        # zero exactly where the raw value dipped below zero.
        cache["clip_mask"] = sq >= 0
        logits = -0.5 * np.clip(sq, 0.0, None) / tau
    else:
        raise ValueError(f"unknown similarity {sim!r}")
    return logits, cache


def _similarity_bwd(grad_logits: np.ndarray, u: np.ndarray, v: np.ndarray,
                    tau: float, sim: str,
                    cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of the logits w.r.t. the raw inputs ``u`` and ``v``."""
    if sim == "cos":
        uh, vh = cache["uh"], cache["vh"]
        grad_uh = (grad_logits @ vh) / tau
        grad_vh = (grad_logits.T @ uh) / tau
        return (_normalize_bwd(grad_uh, uh, cache["un"]),
                _normalize_bwd(grad_vh, vh, cache["vn"]))
    if sim == "dot":
        return (grad_logits @ v) / tau, (grad_logits.T @ u) / tau
    # euclid: logits = -0.5 * clip(|u_i - v_j|^2) / tau
    g = np.where(cache["clip_mask"], grad_logits, 0.0) * (-0.5 / tau)
    grad_u = 2.0 * (g.sum(axis=1, keepdims=True) * u - g @ v)
    grad_v = 2.0 * (g.sum(axis=0)[:, None] * v - g.T @ u)
    return grad_u, grad_v


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def fused_info_nce(u: Tensor, v: Tensor, tau: float = 0.5, sim: str = "cos",
                   symmetric: bool = True) -> Tensor:
    """InfoNCE (paper Eq. 4) as a single autograd node.

    Fuses l2-normalize -> similarity matrix -> log-softmax -> diagonal NLL
    (both anchoring directions when ``symmetric``) with the closed-form
    gradient ``dL/dS = (P - I)/n`` pushed through the similarity adjoint.
    Equivalent to :func:`repro.losses.info_nce`.
    """
    u, v = as_tensor(u), as_tensor(v)
    if u.shape != v.shape:
        raise ValueError(f"view shapes differ: {u.shape} vs {v.shape}")
    if len(u) < 2:
        raise ValueError("InfoNCE needs at least 2 samples for negatives")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    n = len(u)
    logits, cache = _similarity_fwd(u.data, v.data, tau, sim)
    log_p_uv = _log_softmax_rows(logits)
    loss = -np.trace(log_p_uv) / n
    if symmetric:
        log_p_vu = _log_softmax_rows(logits.T)
        loss = 0.5 * (loss - np.trace(log_p_vu) / n)

    def backward(grad):
        scale = float(grad) / n
        eye = np.eye(n, dtype=logits.dtype)
        grad_logits = np.exp(log_p_uv) - eye
        if symmetric:
            grad_logits = 0.5 * (grad_logits
                                 + (np.exp(log_p_vu) - eye).T)
        grad_logits = grad_logits * scale
        return _similarity_bwd(grad_logits, u.data, v.data, tau, sim, cache)

    return Tensor._make(np.asarray(loss, dtype=u.data.dtype),
                        (u, v), backward)


def fused_gradient_features(anchor: Tensor, candidates: Tensor,
                            tau: float) -> Tensor:
    """Eq. 6 gradient features ``softmax(A C^T / tau) @ C - C`` in one node.

    This is the softmax-weighted candidate combination at the heart of
    GradGCL; the closed-form backward routes the upstream gradient through
    the softmax Jacobian and both matmuls without materializing interior
    nodes.  Equivalent to ``_anchor_gradient`` in
    :mod:`repro.core.gradient_features` for dot-product logits (the ``dot``
    and pre-normalized ``cos`` modes).
    """
    anchor, candidates = as_tensor(anchor), as_tensor(candidates)
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    a, c = anchor.data, candidates.data
    logits = (a @ c.T) / tau
    logits -= logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    out_data = p @ c - c

    def backward(grad):
        grad_p = grad @ c.T
        # Row-wise softmax Jacobian: dS = P * (dP - <dP, P>).
        grad_logits = p * (grad_p
                           - (grad_p * p).sum(axis=1, keepdims=True))
        grad_anchor = (grad_logits @ c) / tau
        grad_cand = p.T @ grad - grad + (grad_logits.T @ a) / tau
        return (grad_anchor, grad_cand)

    return Tensor._make(out_data, (anchor, candidates), backward)


def fused_segment_mean(values: Tensor, segment_ids: np.ndarray,
                       num_segments: int) -> Tensor:
    """Mean-readout over segments as one node (empty segments yield zeros).

    Equivalent to :func:`repro.tensor.segment_mean` (which composes
    segment_sum and a division node).
    """
    from .ops import _segment_sum_kernel

    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    counts = np.bincount(segment_ids, minlength=num_segments)
    inv = (1.0 / np.maximum(counts, 1)).astype(values.data.dtype)
    out_data = _segment_sum_kernel(values.data, segment_ids, num_segments)
    out_data *= inv.reshape((num_segments,) + (1,) * (values.ndim - 1))

    def backward(grad):
        scaled = grad * inv.reshape((num_segments,)
                                    + (1,) * (grad.ndim - 1))
        return (scaled[segment_ids],)

    return Tensor._make(out_data, (values,), backward)


def batch_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and (biased) variance of a 2-D batch, keepdims.

    Written with the expressions of ``Tensor.mean`` / ``Tensor.var``
    (column sums divided by the row count, then centered squares) so the
    bytes match the autograd composition exactly.
    """
    count = np.asarray(float(len(x)), dtype=x.dtype)
    mean = x.sum(axis=0, keepdims=True) / count
    centered = x - mean
    return mean, (centered * centered).sum(axis=0, keepdims=True) / count


def fused_batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                     eps: float = 1e-5) -> Tensor:
    """Training-mode batch norm ``(x - mean) / sqrt(var + eps) * g + b``.

    One autograd node with the closed-form input gradient
    ``(g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / std``; the
    forward repeats the reference composition's expressions in its order,
    so the output bytes are identical.  Equivalent to the ``"batch_norm"``
    reference in :mod:`repro.tensor.registry`.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    mean, var = batch_moments(x.data)
    std = np.sqrt(var + np.asarray(eps, dtype=var.dtype))
    normalized = (x.data - mean) / std
    out_data = normalized * gamma.data + beta.data

    def backward(grad):
        grad_x = None
        if x.requires_grad:
            g_hat = grad * gamma.data
            grad_x = (g_hat - g_hat.mean(axis=0, keepdims=True)
                      - normalized * (g_hat * normalized).mean(
                          axis=0, keepdims=True)) / std
        return (grad_x,
                (grad * normalized).sum(axis=0).reshape(gamma.shape),
                grad.sum(axis=0).reshape(beta.shape))

    return Tensor._make(out_data, (x, gamma, beta), backward)
