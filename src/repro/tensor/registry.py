"""Named-op registry: one dispatch layer for reference vs fused kernels.

Every differentiable op with more than one implementation is registered here
under a stable name, with its unfused *reference* composition and (when one
exists) the closed-form *fused* kernel side by side.  Call sites stop
branching on ``use_fused()`` themselves and go through :func:`call`, which
owns the whole dispatch policy:

1. the context-local switch scoped by :func:`fused_kernels`
   (a :class:`contextvars.ContextVar`, so serve's worker threads and
   concurrent tests cannot race each other's toggles);
2. the ``REPRO_FUSED`` environment variable, read lazily on every resolve
   (changing it after import behaves the same as before import);
3. fused by default.

Ops whose entry has no fused implementation always run the reference.
:func:`call` also feeds ``repro.obs`` engine counters with per-op dispatch
counts keyed ``"<name>.<impl>"``, replacing the hand-maintained strings the
observability layer used to track.

Each entry carries an ``example`` factory producing representative inputs;
``tests/tensor/test_registry.py`` iterates the registry and gradchecks
each entry's ``reference`` and ``fused`` callables against each other on
those examples, so a newly registered op is covered automatically.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.engine_hooks import ENGINE
from . import fused as _fused
from . import ops as _ops
from .tensor import Tensor

__all__ = [
    "OpEntry", "register_op", "get_op", "op_names", "call",
    "use_fused", "fused_kernels",
]


# ---------------------------------------------------------------------------
# Dispatch policy
# ---------------------------------------------------------------------------

# Context-local override scoped by fused_kernels(); None means "not scoped".
_CTX_FUSED: contextvars.ContextVar[bool | None] = contextvars.ContextVar(
    "repro_fused_ctx", default=None)


def use_fused() -> bool:
    """Resolve the global fused/reference switch for the current context."""
    scoped = _CTX_FUSED.get()
    if scoped is not None:
        return scoped
    return os.environ.get("REPRO_FUSED", "1") != "0"


@contextlib.contextmanager
def fused_kernels(enabled: bool):
    """Scope the fused switch to the current context (thread/task-local)."""
    token = _CTX_FUSED.set(bool(enabled))
    try:
        yield
    finally:
        _CTX_FUSED.reset(token)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpEntry:
    """One named op: reference composition, optional fused kernel, examples.

    ``example`` takes a :class:`numpy.random.Generator` and returns
    ``(args, kwargs)`` pairs representative of real call sites, used by the
    registry-driven equivalence suite.
    """

    name: str
    reference: Callable
    fused: Callable | None = None
    example: Callable | None = None


_REGISTRY: dict[str, OpEntry] = {}


def register_op(entry: OpEntry) -> OpEntry:
    """Add (or replace) an entry; returns it for chaining."""
    _REGISTRY[entry.name] = entry
    return entry


def get_op(name: str) -> OpEntry:
    """Look up an entry; raises ``KeyError`` with the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown op {name!r}; registered: {sorted(_REGISTRY)}") from None


def op_names() -> tuple[str, ...]:
    """Registered op names in sorted order."""
    return tuple(sorted(_REGISTRY))


def call(name: str, *args, **kwargs):
    """Dispatch op ``name`` per the fused/reference policy."""
    entry = get_op(name)
    which = ("fused" if entry.fused is not None and use_fused()
             else "reference")
    if ENGINE.enabled:
        ENGINE.record_dispatch(name, which)
    fn = entry.fused if which == "fused" else entry.reference
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Built-in ops
# ---------------------------------------------------------------------------
# Reference compositions are written here against the primitive ops so the
# registry depends only on repro.tensor (no upward imports into losses/nn);
# the call sites that used to own these compositions now call through the
# registry.  Each reference must stay numerically identical to the historical
# call-site composition — the equivalence suite leans on that.


def _ref_l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    return _ops.l2_normalize(x, axis=-1, eps=eps)


def _ref_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                activation: str | None = None) -> Tensor:
    if activation not in (None, "relu"):
        raise ValueError(f"unsupported activation {activation!r}")
    out = x @ weight
    if bias is not None:
        out = out + bias
    if activation == "relu":
        out = out.relu()
    return out


def _ref_info_nce(u: Tensor, v: Tensor, tau: float = 0.5, sim: str = "cos",
                  symmetric: bool = True) -> Tensor:
    def similarity(a: Tensor, b: Tensor) -> Tensor:
        if sim == "cos":
            return _ops.l2_normalize(a) @ _ops.l2_normalize(b).T
        if sim == "dot":
            return a @ b.T
        if sim == "euclid":
            return _ops.pairwise_sqdist(a, b) * -0.5
        raise ValueError(f"unknown similarity {sim!r}")

    def one_direction(a: Tensor, b: Tensor) -> Tensor:
        logits = similarity(a, b) / tau
        log_probs = _ops.log_softmax(logits, axis=1)
        n = len(a)
        return -log_probs[range(n), range(n)].mean()

    loss = one_direction(u, v)
    if symmetric:
        loss = (loss + one_direction(v, u)) * 0.5
    return loss


def _ref_gradient_features(anchor: Tensor, candidates: Tensor,
                           tau: float) -> Tensor:
    # Dot-product-logit form of Eq. 6 (cos mode pre-normalizes the inputs
    # before calling; the euclid form is a different op entirely and lives in
    # repro.core.gradient_features).
    logits = (anchor @ candidates.T) / tau
    p = _ops.softmax(logits, axis=1)
    return p @ candidates - candidates


def _ref_batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
                    eps: float = 1e-5) -> Tensor:
    # BatchNorm1d's training-mode composition over batch statistics.
    mean = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    normalized = (x - mean) / (var + eps).sqrt()
    return normalized * gamma + beta


def _pair(rng: np.random.Generator, n: int = 6, d: int = 4):
    u = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    v = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    return u, v


def _ex_l2_normalize(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    return [((x,), {})]


def _ex_linear(rng):
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    return [((x, w), {}),
            ((x, w, b), {}),
            ((x, w, b), {"activation": "relu"})]


def _ex_info_nce(rng):
    cases = []
    for sim in ("cos", "dot", "euclid"):
        for symmetric in (True, False):
            u, v = _pair(rng)
            cases.append(((u, v), {"tau": 0.7, "sim": sim,
                                   "symmetric": symmetric}))
    return cases


def _ex_gradient_features(rng):
    u, v = _pair(rng)
    return [((u, v, 0.5), {})]


def _ex_segment_mean(rng):
    values = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    sorted_ids = np.array([0, 0, 1, 1, 1, 3, 3])   # segment 2 empty
    shuffled_ids = np.array([2, 0, 1, 0, 2, 1, 0])
    return [((values, sorted_ids, 4), {}),
            ((values, shuffled_ids, 3), {})]


def _ex_batch_norm(rng):
    def affine(d):
        return (Tensor(rng.normal(size=d), requires_grad=True),
                Tensor(rng.normal(size=d), requires_grad=True))

    x = rng.normal(size=(6, 4))
    x[:, 2] = 0.7                     # constant column: zero variance
    pair = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    # float32 activations (no gradient: a float32 finite difference is too
    # coarse to check) feeding float64 affine parameters.
    low = Tensor(rng.normal(size=(5, 3)), dtype=np.float32)
    return [((Tensor(x, requires_grad=True), *affine(4)), {}),
            ((pair, *affine(3)), {"eps": 1e-3}),
            ((low, *affine(3)), {})]


register_op(OpEntry("l2_normalize", _ref_l2_normalize,
                    _fused.fused_l2_normalize, _ex_l2_normalize))
register_op(OpEntry("linear", _ref_linear, _fused.fused_linear, _ex_linear))
register_op(OpEntry("info_nce", _ref_info_nce, _fused.fused_info_nce,
                    _ex_info_nce))
register_op(OpEntry("gradient_features", _ref_gradient_features,
                    _fused.fused_gradient_features, _ex_gradient_features))
register_op(OpEntry("segment_mean", _ops.segment_mean,
                    _fused.fused_segment_mean, _ex_segment_mean))
register_op(OpEntry("batch_norm", _ref_batch_norm, _fused.fused_batch_norm,
                    _ex_batch_norm))
