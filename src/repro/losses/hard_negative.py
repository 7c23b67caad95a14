"""Hard-negative-weighted InfoNCE (HCL-style reweighting).

The paper argues (Sec. III-A.2) that existing GCL fails on hard negatives
and that the *gradient channel* supplies the missing instance-level signal.
An alternative family of fixes reweights hard negatives explicitly
(Robinson et al. 2021's hard-negative contrastive loss); we implement that
competitor so the extra-ablation bench can compare "explicit hard-negative
pressure" against GradGCL's implicit one.

Each negative's weight is ``exp(beta * sim)`` (normalized), concentrating
the repulsion budget on the most confusable negatives; ``beta = 0``
recovers plain InfoNCE.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, l2_normalize, softmax

__all__ = ["hard_negative_info_nce"]


def hard_negative_info_nce(u: Tensor, v: Tensor, tau: float = 0.5,
                           beta: float = 1.0) -> Tensor:
    """InfoNCE with hard-negative up-weighting.

    Parameters
    ----------
    beta:
        Hardness concentration; 0 recovers the plain (asymmetric) InfoNCE.
    """
    if u.shape != v.shape:
        raise ValueError(f"view shapes differ: {u.shape} vs {v.shape}")
    if len(u) < 2:
        raise ValueError("needs at least 2 samples for negatives")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")

    n = len(u)
    u_hat, v_hat = l2_normalize(u), l2_normalize(v)
    sims = u_hat @ v_hat.T                       # (n, n)
    diag = np.eye(n, dtype=bool)

    # Importance weights over negatives: w_ij ∝ exp(beta * sim_ij), with
    # the positive excluded and each row renormalized to sum to (n - 1) so
    # beta = 0 gives uniform weight 1 per negative (plain InfoNCE).
    neg_logits = sims * beta - Tensor(diag * 1e9)
    weights = softmax(neg_logits, axis=1) * float(n - 1)

    # Weighted log-denominator: log(exp(pos/tau) + sum_j w_ij exp(neg/tau)).
    scaled = sims / tau
    pos_term = scaled[diag].reshape(n, 1)
    # Use a weighted softmax trick: logits + log(weights) implements the
    # weighting inside logsumexp; the positive keeps weight 1.
    log_weights = (weights + 1e-12).log() * Tensor((~diag).astype(float))
    adjusted = scaled + log_weights - Tensor(diag * 0.0)
    log_probs = pos_term - _logsumexp_rows(adjusted)
    return -log_probs.mean()


def _logsumexp_rows(x: Tensor) -> Tensor:
    shift = Tensor(x.data.max(axis=1, keepdims=True))
    return (x - shift).exp().sum(axis=1, keepdims=True).log() + shift
