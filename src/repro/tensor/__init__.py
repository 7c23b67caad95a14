"""Numpy-backed reverse-mode autodiff substrate (replaces PyTorch autograd)."""

from .tensor import Tensor, as_tensor, is_grad_enabled, no_grad
from .dtype import autocast, get_default_dtype, set_default_dtype
from .ops import (
    concat,
    cosine_similarity_matrix,
    dot_rows,
    dropout_mask,
    gather_rows,
    l2_normalize,
    log_softmax,
    logsumexp,
    pairwise_sqdist,
    segment_max,
    segment_mean,
    segment_sum,
    softmax,
    spmm,
    stack,
    where,
)
from .fused import (
    fused_batch_norm,
    fused_gradient_features,
    fused_info_nce,
    fused_l2_normalize,
    fused_linear,
    fused_segment_mean,
)
from .registry import (
    OpEntry,
    call,
    fused_kernels,
    get_op,
    op_names,
    register_op,
    use_fused,
)

__all__ = [
    "Tensor", "as_tensor", "no_grad", "is_grad_enabled",
    "autocast", "get_default_dtype", "set_default_dtype",
    "concat", "stack", "spmm", "segment_sum", "segment_mean", "segment_max",
    "gather_rows", "logsumexp", "softmax", "log_softmax", "l2_normalize",
    "cosine_similarity_matrix", "pairwise_sqdist", "dot_rows", "where",
    "dropout_mask",
    "fused_info_nce", "fused_gradient_features", "fused_linear",
    "fused_l2_normalize", "fused_segment_mean", "fused_batch_norm",
    "OpEntry", "register_op", "get_op", "op_names", "call",
    "fused_kernels", "use_fused",
]
