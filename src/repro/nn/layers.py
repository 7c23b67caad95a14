"""Core neural-network layers: Linear, BatchNorm1d, Dropout, Sequential, MLP.

These mirror their torch.nn counterparts closely enough that the GCL method
implementations read like the originals.  All randomness (init, dropout)
flows through explicit ``numpy.random.Generator`` objects for repeatability.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..tensor import Tensor, call, dropout_mask
from ..tensor.fused import batch_moments
from . import init as init_schemes
from .module import Module, ModuleList, Parameter

__all__ = ["Linear", "BatchNorm1d", "Dropout", "Identity", "Sequential",
           "ReLU", "Tanh", "Sigmoid", "LeakyReLU", "PReLU", "MLP"]


class Linear(Module):
    """Affine map ``y = x W + b`` with Glorot-uniform initialization.

    2-D inputs dispatch through the op registry (``"linear"``), which picks
    the single-node fused kernel or the primitive reference composition per
    the active policy; other ranks always use the primitive composition.
    """

    def __init__(self, in_features: int, out_features: int,
                 bias: bool = True, *, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_schemes.glorot_uniform(in_features, out_features, rng))
        self.bias = Parameter(init_schemes.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            return call("linear", x, self.weight, self.bias)
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class BatchNorm1d(Module):
    """Batch normalization over the feature axis with running statistics.

    Training mode dispatches through the op registry (``"batch_norm"``:
    the fused single-node kernel or the primitive reference composition)
    and updates the running statistics from the same batch moments; eval
    mode normalizes with the running statistics by primitive composition.
    """

    _buffer_attrs = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        from ..tensor import get_default_dtype

        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        # Running stats follow the dtype policy so eval-mode forwards do not
        # promote a float32 graph back to float64.
        dtype = get_default_dtype()
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean, var = batch_moments(x.data)
            self.running_mean *= 1 - self.momentum
            self.running_mean += self.momentum * mean.ravel()
            self.running_var *= 1 - self.momentum
            self.running_var += self.momentum * var.ravel()
            return call("batch_norm", x, self.gamma, self.beta, self.eps)
        mean = Tensor(self.running_mean.reshape(1, -1))
        var = Tensor(self.running_var.reshape(1, -1))
        normalized = (x - mean) / (var + self.eps).sqrt()
        return normalized * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, *, rng: np.random.Generator):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0:
            return x
        return x * Tensor(dropout_mask(x.shape, self.rate, self._rng))


class Identity(Module):
    """Pass-through module (useful as a configurable no-op)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class ReLU(Module):
    """Rectified linear unit activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic sigmoid activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class LeakyReLU(Module):
    """Leaky ReLU with configurable negative slope."""

    def __init__(self, negative_slope: float = 0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class PReLU(Module):
    """Parametric ReLU with a single learned slope (used by DGI/MVGRL)."""

    def __init__(self, init_slope: float = 0.25):
        super().__init__()
        self.slope = Parameter(np.array([init_slope]))

    def forward(self, x: Tensor) -> Tensor:
        positive = x.relu()
        negative = (x * -1.0).relu() * -1.0
        return positive + negative * self.slope


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = ModuleList(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.steps:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron with ReLU activations.

    Used both as GIN's per-layer update network and as the projection head
    every contrastive method attaches after the encoder.
    """

    def __init__(self, dims: Sequence[int], *, rng: np.random.Generator,
                 batch_norm: bool = False, dropout: float = 0.0,
                 final_activation: bool = False):
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        layers: list[Module] = []
        for i in range(len(dims) - 1):
            layers.append(Linear(dims[i], dims[i + 1], rng=rng))
            is_last = i == len(dims) - 2
            if not is_last or final_activation:
                if batch_norm:
                    layers.append(BatchNorm1d(dims[i + 1]))
                layers.append(ReLU())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
        self.body = Sequential(*layers)
        self.dims = tuple(dims)

    def forward(self, x: Tensor) -> Tensor:
        return self.body(x)
