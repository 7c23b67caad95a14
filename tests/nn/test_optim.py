"""Optimizer and scheduler behaviour."""

import numpy as np
import pytest

from repro.nn import SGD, Adam, CosineAnnealingLR, Parameter, StepLR
from repro.tensor import Tensor


def quadratic_step(optimizer, param, target):
    optimizer.zero_grad()
    loss = ((param - Tensor(target)) ** 2).sum()
    loss.backward()
    optimizer.step()
    return loss.item()


class TestSGD:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = SGD([p], lr=0.1)
        target = np.array([1.0, 2.0])
        for _ in range(100):
            loss = quadratic_step(opt, p, target)
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.array([10.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                quadratic_step(opt, p, np.array([0.0]))
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        p.grad = np.array([0.0])
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad -> no change, no crash
        np.testing.assert_allclose(p.data, [1.0])


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0, -3.0]))
        opt = Adam([p], lr=0.1)
        target = np.array([1.0, 2.0])
        for _ in range(200):
            quadratic_step(opt, p, target)
        np.testing.assert_allclose(p.data, target, atol=1e-3)

    def test_first_step_magnitude_is_lr(self):
        # Adam's bias correction makes the first step ~lr in each coord.
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.05)
        p.grad = np.array([3.7])
        opt.step()
        np.testing.assert_allclose(1.0 - p.data[0], 0.05, rtol=1e-6)

    def test_validation(self):
        p = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            Adam([p], lr=0.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)


class TestSchedulers:
    def test_step_lr(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=1.0)
        sched = StepLR(opt, step_size=2, gamma=0.1)
        lrs = []
        for _ in range(4):
            sched.step()
            lrs.append(opt.lr)
        np.testing.assert_allclose(lrs, [1.0, 0.1, 0.1, 0.01])

    def test_cosine_endpoints(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=2.0)
        sched = CosineAnnealingLR(opt, total_epochs=10, eta_min=0.0)
        for _ in range(10):
            sched.step()
        np.testing.assert_allclose(opt.lr, 0.0, atol=1e-12)

    def test_cosine_monotone_decreasing(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=1.0)
        sched = CosineAnnealingLR(opt, total_epochs=5)
        previous = opt.lr
        for _ in range(5):
            sched.step()
            assert opt.lr <= previous + 1e-12
            previous = opt.lr
