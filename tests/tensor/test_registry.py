"""Op registry: dispatch policy, per-op equivalence, context isolation.

The equivalence classes iterate :func:`repro.tensor.op_names` and each
entry's ``example`` factory, so registering a new op automatically puts it
under forward-equivalence and finite-difference gradcheck for *both*
implementations — no per-kernel test to write.
"""

import threading

import numpy as np
import pytest

from repro.obs.engine_hooks import engine_stats
from repro.tensor import (
    Tensor,
    call,
    fused_kernels,
    get_op,
    is_grad_enabled,
    no_grad,
    op_names,
    use_fused,
)

from ..gradcheck import assert_gradients_match


def _cases():
    """(op name, example index) pairs for every registered op."""
    params = []
    for name in op_names():
        entry = get_op(name)
        assert entry.example is not None, f"op {name!r} lacks examples"
        for index in range(len(entry.example(np.random.default_rng(0)))):
            params.append((name, index))
    return params


def _case(name, index):
    """Fresh leaves for one example case (same data every call)."""
    return get_op(name).example(np.random.default_rng(0))[index]


def _leaves(args):
    return [a for a in args if isinstance(a, Tensor) and a.requires_grad]


def _scalarize(name, out):
    """Reduce a (possibly non-scalar) op output to a scalar objective."""
    if out.data.ndim == 0:
        return out
    weights = Tensor(np.random.default_rng(99).normal(size=out.data.shape))
    return (out * weights).sum()


class TestRegistryContract:
    def test_every_op_registered_with_fused_impl(self):
        assert set(op_names()) == {"batch_norm", "gradient_features",
                                   "info_nce", "linear", "l2_normalize",
                                   "segment_mean"}
        for name in op_names():
            assert get_op(name).fused is not None

    def test_unknown_op_is_actionable(self):
        with pytest.raises(KeyError, match="registered"):
            call("no_such_op")


class TestEquivalence:
    """reference == fused (forward + backward) on every registered example."""

    @pytest.mark.parametrize("name,index", _cases())
    def test_forward_backward_match(self, name, index):
        results = {}
        for which in ("reference", "fused"):
            args, kwargs = _case(name, index)
            leaves = _leaves(args)
            out = getattr(get_op(name), which)(*args, **kwargs)
            _scalarize(name, out).backward()
            results[which] = (np.copy(out.data), [t.grad for t in leaves])
        out_f, grads_f = results["fused"]
        out_r, grads_r = results["reference"]
        np.testing.assert_allclose(out_f, out_r, rtol=1e-9, atol=1e-9)
        assert len(grads_f) > 0
        for gf, gr in zip(grads_f, grads_r):
            np.testing.assert_allclose(gf, gr, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("which", ["reference", "fused"])
    @pytest.mark.parametrize("name,index", _cases())
    def test_gradcheck(self, name, index, which):
        args, kwargs = _case(name, index)
        leaves = _leaves(args)
        assert_gradients_match(
            lambda: _scalarize(name,
                               getattr(get_op(name), which)(*args, **kwargs)),
            *leaves)


class TestDispatchPolicy:
    def test_dispatch_counters_keyed_by_op_and_impl(self):
        x = Tensor(np.random.default_rng(3).normal(size=(4, 3)))
        with engine_stats() as engine:
            with fused_kernels(True):
                call("l2_normalize", x)
            with fused_kernels(False):
                call("l2_normalize", x)
        dispatch = engine.snapshot()["dispatch"]
        assert dispatch["l2_normalize.fused"] == 1
        assert dispatch["l2_normalize.reference"] == 1

    def test_env_variable_read_lazily(self, monkeypatch):
        """REPRO_FUSED set *after* import must still steer dispatch."""
        monkeypatch.setenv("REPRO_FUSED", "0")
        assert use_fused() is False
        monkeypatch.setenv("REPRO_FUSED", "1")
        assert use_fused() is True


class TestContextIsolation:
    """The fused switch and no_grad are context-local, not process-global."""

    def test_concurrent_opposite_fused_scopes(self):
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def worker(flag):
            with fused_kernels(flag):
                barrier.wait()
                seen[flag] = use_fused()
                barrier.wait()

        threads = [threading.Thread(target=worker, args=(flag,))
                   for flag in (True, False)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert seen == {True: True, False: False}

    def test_main_thread_scope_invisible_to_workers(self):
        default = use_fused()
        seen = {}
        started = threading.Event()
        release = threading.Event()

        def worker():
            started.set()
            release.wait(timeout=10)
            seen["fused"] = use_fused()
            seen["grad"] = is_grad_enabled()

        thread = threading.Thread(target=worker)
        with fused_kernels(not default), no_grad():
            thread.start()
            started.wait(timeout=10)
            release.set()
            thread.join(timeout=10)
        assert seen["fused"] is default
        assert seen["grad"] is True

    def test_worker_scope_does_not_leak_back(self):
        default = use_fused()

        def worker():
            with fused_kernels(not default):
                assert use_fused() is (not default)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert use_fused() is default
        assert is_grad_enabled() is True
