"""A reverse-mode automatic differentiation engine over numpy arrays.

This module is the substrate that replaces PyTorch autograd in the GradGCL
reproduction.  It implements a :class:`Tensor` wrapping a ``numpy.ndarray``
together with the primitive differentiable operations needed by the rest of
the library: broadcasting arithmetic, matrix multiplication, reductions,
element-wise nonlinearities, indexing, and shape manipulation.

The design is deliberately simple and explicit:

* every operation returns a new :class:`Tensor` holding references to its
  parents and a ``_backward`` closure that accumulates gradients into them;
* :meth:`Tensor.backward` topologically sorts the graph and runs the closures
  in reverse order, routing intermediate gradients through a buffer dict and
  materializing ``.grad`` only on *leaf* tensors (nodes without a backward
  closure) — interior nodes never allocate a ``.grad`` array;
* after the sweep the graph is freed (closures and parent links dropped)
  unless ``retain_graph=True``, so step ``t``'s graph cannot pin memory into
  step ``t+1``.

Leaf tensors default to the dtype policy in :mod:`repro.tensor.dtype`
(float64 unless changed); interior nodes keep whatever dtype the numpy
kernels produce, so a float32 graph stays float32 through backward.

First-order autodiff is all GradGCL needs: the paper's Eq. (6) gradient
features are implemented as an explicit composition of these primitives (see
:mod:`repro.core.gradient_features`), so the gradient contrastive loss trains
the encoder without second-order machinery.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Callable, Sequence

import numpy as np

from ..obs.engine_hooks import ENGINE
from .dtype import get_default_dtype

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled"]

# Context-local autograd switch, toggled by the ``no_grad`` context manager.
# A ContextVar (not a module global) so concurrent contexts — serve's HTTP
# handler threads, the micro-batcher worker — each see their own flag and a
# ``no_grad`` scope in one thread cannot leak into another.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED.get()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    Numpy broadcasting expands leading axes and size-1 axes; the adjoint of a
    broadcast is a sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Remove extra leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _is_basic_index(index) -> bool:
    """True when ``index`` is basic (view) indexing: no duplicate positions.

    Slices, integers, Ellipsis, newaxis, and tuples of those select each
    source element at most once, so the adjoint is a direct slice assignment
    instead of the much slower ``np.add.at`` scatter.  Boolean masks also
    never repeat positions, but integer arrays/lists can and must scatter.
    """
    if isinstance(index, tuple):
        return all(_is_basic_index(i) for i in index)
    if isinstance(index, (slice, type(Ellipsis), type(None))):
        return True
    return isinstance(index, (int, np.integer)) and not isinstance(index, bool)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in which row ``i`` of the result depends only on ``a[i]``.

    numpy hands a one-row 2-D operand to BLAS gemv, which accumulates in a
    different order than gemm, so a row computed alone rounds differently
    from the same row inside a taller matrix.  A lone row is therefore
    doubled to keep every 2-D product on gemm: a one-node graph then
    embeds to the same bytes alone as inside any batch.
    """
    if a.ndim == 2 and b.ndim == 2 and a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b


class Tensor:
    """A numpy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to a floating-point numpy array.
    requires_grad:
        When True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    dtype:
        Explicit dtype override; defaults to the module dtype policy
        (:func:`repro.tensor.set_default_dtype`).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "_freed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(
            data, dtype=get_default_dtype() if dtype is None else dtype)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED.get()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._freed = False

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{flag})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (a view; do not mutate mid-graph)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the graph."""
        return Tensor(self.data, dtype=self.data.dtype)

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast (gradient is cast back)."""
        original = self.data.dtype
        out_data = self.data.astype(dtype, copy=False)

        def backward(grad):
            return (grad.astype(original, copy=False),)

        return Tensor._make(out_data, (self,), backward)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad,
                      dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create a result tensor wired into the autograd graph.

        Interior nodes keep the dtype the numpy kernel produced rather than
        coercing to the default policy (see module docstring).
        """
        data = np.asarray(data)
        if ENGINE.enabled:
            ENGINE.record_op(data.nbytes)
        requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, donate: bool = False) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer.

        ``donate=True`` signals that the caller owns ``grad`` exclusively
        (freshly allocated during the backward sweep) so it can be adopted
        as ``.grad`` without a defensive copy.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            if (donate and isinstance(grad, np.ndarray)
                    and grad.dtype == self.data.dtype
                    and grad.shape == self.data.shape):
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None,
                 retain_graph: bool = False) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Gradients are routed through a per-sweep buffer dict; only leaf
        tensors (``requires_grad=True`` with no backward closure) get their
        ``.grad`` materialized.  Unless ``retain_graph=True``, the traversed
        graph is freed afterwards (closures and parent links dropped) and a
        second ``backward()`` through it raises ``RuntimeError``.

        Parameters
        ----------
        grad:
            Seed gradient; defaults to 1 for scalar tensors.
        retain_graph:
            Keep the graph alive for another backward pass.
        """
        if self._freed:
            raise RuntimeError(
                "graph has already been freed by a previous backward(); "
                "pass retain_graph=True to backpropagate through it again")
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient is only valid "
                    f"for scalar tensors, got shape {self.shape}")
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            seed_owned = False
        if grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {grad.shape} does not match tensor "
                f"shape {self.shape}")

        # Topological sort of the reachable subgraph.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        if ENGINE.enabled:
            ENGINE.record_backward(len(order))

        # Reverse sweep.  ``grads`` maps node id -> accumulated upstream
        # gradient; ``owned`` tracks which buffers this sweep allocated and
        # may therefore mutate in place or donate to a leaf's ``.grad``.
        # Buffers received straight from a closure are *not* owned: they may
        # alias the closure's upstream gradient or a sibling contribution.
        grads: dict[int, np.ndarray] = {id(self): grad}
        owned: dict[int, bool] = {id(self): seed_owned}
        for node in reversed(order):
            key = id(node)
            node_grad = grads.pop(key, None)
            if node_grad is None:
                continue
            node_owned = owned.pop(key, False)
            if node._backward is None:
                node._accumulate(node_grad, donate=node_owned)
                continue
            contributions = node._backward(node_grad)
            for parent, contribution in zip(node._parents, contributions):
                if contribution is None or not parent.requires_grad:
                    continue
                contribution = np.asarray(contribution)
                pkey = id(parent)
                existing = grads.get(pkey)
                if existing is None:
                    grads[pkey] = contribution
                    owned[pkey] = False
                elif owned[pkey]:
                    existing += contribution
                else:
                    grads[pkey] = existing + contribution
                    owned[pkey] = True

        if not retain_graph:
            for node in order:
                if node._backward is not None:
                    node._backward = None
                    node._parents = ()
                    node._freed = True

    # ------------------------------------------------------------------
    # Arithmetic (broadcasting)
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data + other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data - other.data

        def backward(grad):
            return (_unbroadcast(grad, self.shape),
                    _unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data * other.data

        def backward(grad):
            return (_unbroadcast(grad * other.data, self.shape),
                    _unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out_data = self.data / other.data

        def backward(grad):
            return (_unbroadcast(grad / other.data, self.shape),
                    _unbroadcast(-grad * self.data / other.data ** 2,
                                 other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other, dtype=self.data.dtype).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data ** exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other, dtype=self.data.dtype)
        out_data = _matmul(self.data, other.data)

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                # Dot product: grad is scalar.
                return (grad * b, grad * a)
            if a.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                return (grad @ b.T, np.outer(a, grad))
            if b.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                return (np.outer(grad, b), a.T @ grad)
            return (grad @ b.swapaxes(-1, -2), a.swapaxes(-1, -2) @ grad)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Comparisons (non-differentiable; return numpy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            return (grad / self.data,)

        return Tensor._make(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad):
            return (grad / (2.0 * out_data),)

        return Tensor._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        def backward(grad):
            return (grad * np.sign(self.data),)

        return Tensor._make(np.abs(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data ** 2),)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            return (grad * out_data * (1.0 - out_data),)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(self.data * mask, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope).astype(self.data.dtype)

        def backward(grad):
            return (grad * scale,)

        return Tensor._make(self.data * scale, (self,), backward)

    def softplus(self) -> "Tensor":
        # Numerically stable log(1 + exp(x)).
        out_data = np.logaddexp(0.0, self.data)

        def backward(grad):
            return (grad / (1.0 + np.exp(-self.data)),)

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)

        def backward(grad):
            return (grad * mask,)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        count = (self.data.size if axis is None
                 else np.prod([self.shape[a] for a in np.atleast_1d(axis)]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                expanded = np.expand_dims(out_data, axis)
            mask = (self.data == expanded)
            # Split ties evenly so the gradient of max stays well defined.
            counts = mask.sum(axis=axis, keepdims=True)
            return (np.broadcast_to(g, self.shape) * mask / counts,)

        return Tensor._make(out_data, (self,), backward)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    def var(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation and indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad):
            return (grad.reshape(original),)

        return Tensor._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        inverse = (None if axes is None
                   else tuple(np.argsort(axes)))

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        original_shape = self.shape
        original_dtype = self.data.dtype
        # Basic indexing and boolean masks select each position at most
        # once, so the adjoint is a direct assignment; only integer-array
        # indices (which may repeat) need the slow np.add.at scatter.
        direct = (_is_basic_index(index)
                  or (isinstance(index, np.ndarray) and index.dtype == bool))

        def backward(grad):
            full = np.zeros(original_shape, dtype=original_dtype)
            if direct:
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            return (full,)

        return Tensor._make(out_data, (self,), backward)


def as_tensor(value, dtype=None) -> Tensor:
    """Coerce numbers/arrays/Tensors to a :class:`Tensor` without copying.

    ``dtype`` applies only when ``value`` is not already a Tensor; it lets
    ops wrap python scalars at the dtype of the graph they join instead of
    the global default (keeping float32 graphs float32).
    """
    if isinstance(value, Tensor):
        return value
    return Tensor(value, dtype=dtype)
