"""InfoNCE / NT-Xent contrastive losses (paper Eq. 4 and Eq. 20).

The InfoNCE loss is the estimator every data-augmentation GCL method in the
paper uses; minimizing it maximizes a lower bound on the mutual information
between the two views (paper Lemma 1).  Three similarity modes are supported:

* ``"dot"`` — raw inner products (matches the paper's Eq. 6 derivation);
* ``"cos"`` — cosine similarity, i.e. inner products of L2-normalized
  embeddings (what GraphCL/GRACE actually optimize);
* ``"euclid"`` — negative squared euclidean distance / 2 (paper Eq. 20, used
  in the dimensional-collapse analysis).
"""

from __future__ import annotations

from ..tensor import (
    Tensor,
    call,
    l2_normalize,
    log_softmax,
    pairwise_sqdist,
)

__all__ = ["similarity_matrix", "info_nce", "nt_xent"]

_SIM_MODES = ("dot", "cos", "euclid")


def similarity_matrix(u: Tensor, v: Tensor, sim: str = "cos") -> Tensor:
    """All-pairs similarity between rows of ``u`` and rows of ``v``."""
    if sim not in _SIM_MODES:
        raise ValueError(f"unknown similarity {sim!r}; choose from {_SIM_MODES}")
    if sim == "cos":
        return l2_normalize(u) @ l2_normalize(v).T
    if sim == "dot":
        return u @ v.T
    return pairwise_sqdist(u, v) * -0.5


def info_nce(u: Tensor, v: Tensor, tau: float = 0.5,
             sim: str = "cos", symmetric: bool = True) -> Tensor:
    """InfoNCE loss between paired views ``u`` and ``v`` (paper Eq. 4).

    Row ``n`` of ``u`` and row ``n`` of ``v`` are a positive pair; all other
    rows of ``v`` act as negatives for anchor ``u_n`` (in-batch negatives).
    The loss per anchor is ``-log softmax_n(sim(u_n, v_*) / tau)``.

    Parameters
    ----------
    symmetric:
        Average the loss over both anchoring directions (u -> v and v -> u),
        the convention of GraphCL/GRACE.

    The fused single-node kernel or the unfused reference composition is
    chosen by the registry dispatch policy (:func:`repro.tensor.use_fused`).
    """
    if u.shape != v.shape:
        raise ValueError(f"view shapes differ: {u.shape} vs {v.shape}")
    if len(u) < 2:
        raise ValueError("InfoNCE needs at least 2 samples for negatives")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if sim not in _SIM_MODES:
        raise ValueError(f"unknown similarity {sim!r}; choose from {_SIM_MODES}")
    return call("info_nce", u, v, tau=tau, sim=sim, symmetric=symmetric)


def nt_xent(u: Tensor, v: Tensor, tau: float = 0.5) -> Tensor:
    """SimCLR-style NT-Xent where negatives come from *both* views.

    Provided for completeness; the paper's formulation (Eq. 4) corresponds to
    :func:`info_nce`, which is what the method implementations use.
    """
    from ..tensor import concat

    if u.shape != v.shape:
        raise ValueError(f"view shapes differ: {u.shape} vs {v.shape}")
    n = len(u)
    z = concat([u, v], axis=0)
    logits = similarity_matrix(z, z, "cos") / tau
    # Mask self-similarity by subtracting a large constant on the diagonal.
    import numpy as np

    mask = np.eye(2 * n) * 1e9
    logits = logits - Tensor(mask)
    log_probs = log_softmax(logits, axis=1)
    idx = np.arange(2 * n)
    pos = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    return -log_probs[idx, pos].mean()
