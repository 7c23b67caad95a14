"""Fused kernels: switch semantics plus hypothesis fused == unfused.

Per-kernel gradcheck and float32 fused-vs-reference equivalence moved to
``tests/tensor/test_registry.py``, which iterates the op registry so every
registered op is covered automatically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import infonce_gradient_features
from repro.losses import info_nce
from repro.tensor import Tensor, fused_kernels, use_fused

# Hypothesis-heavy / end-to-end suite: deselected by CI tier (b)
# via -m 'not slow'; `make test-all` runs it.
pytestmark = pytest.mark.slow


class TestFusedSwitch:
    def test_context_manager_restores(self):
        initial = use_fused()
        with fused_kernels(not initial):
            assert use_fused() is (not initial)
        assert use_fused() is initial


finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False, width=64)


def view_pairs(min_n=2, max_n=6, min_d=2, max_d=5):
    return st.tuples(st.integers(min_n, max_n),
                     st.integers(min_d, max_d)).flatmap(
        lambda shape: st.tuples(arrays(np.float64, shape, elements=finite),
                                arrays(np.float64, shape, elements=finite)))


class TestFusedProperties:
    """Hypothesis: fused == unfused over random shapes and values."""

    @settings(max_examples=25, deadline=None)
    @given(view_pairs())
    def test_info_nce_forward_backward(self, pair):
        u_np, v_np = pair
        outs, grads = [], []
        for flag in (True, False):
            u = Tensor(u_np, requires_grad=True)
            v = Tensor(v_np, requires_grad=True)
            with fused_kernels(flag):
                loss = info_nce(u, v, tau=0.7, sim="cos")
            loss.backward()
            outs.append(loss.item())
            grads.append((u.grad, v.grad))
        np.testing.assert_allclose(outs[0], outs[1], rtol=1e-9, atol=1e-9)
        for gf, gr in zip(grads[0], grads[1]):
            np.testing.assert_allclose(gf, gr, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(view_pairs())
    def test_gradient_features_forward(self, pair):
        u_np, v_np = pair
        results = []
        for flag in (True, False):
            with fused_kernels(flag):
                g, gp = infonce_gradient_features(Tensor(u_np), Tensor(v_np),
                                                  tau=0.5, sim="dot")
            results.append((g.data, gp.data))
        for a, b in zip(results[0], results[1]):
            np.testing.assert_allclose(a, b, atol=1e-9)
