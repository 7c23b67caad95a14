"""Tensor-engine microbenchmarks and the end-to-end smoke-training bench.

Two jobs:

* **Microbenchmarks** — each fused kernel against its primitive reference
  composition (forward + backward), plus the sorted-segment ``reduceat``
  and basic-index ``__getitem__`` fast paths.  Before timing anything the
  compared paths are asserted numerically equivalent, so a speedup can
  never come from silently computing something else.
* **End-to-end step bench** — one GradGCL-wrapped GraphCL and SimGRACE
  smoke-training run (PROTEINS small scale, fixed seeds) under the
  advertised training configuration (float32 + fused kernels), compared
  against the pre-optimization baselines captured on the same protocol.

Run as a script to (re)generate ``BENCH_tensor.json`` at the repo root::

    PYTHONPATH=src python -m benchmarks.bench_tensor_ops

``scripts/check_perf.py`` compares a fresh run of the microbenchmarks
against the committed JSON and warns on regressions.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np

from repro.core import gradgcl, infonce_gradient_features
from repro.datasets import load_tu_dataset
from repro.losses import info_nce
from repro.methods import GraphCL, SimGRACE
from repro.run import GraphSteps, Trainer
from repro.tensor import (
    Tensor,
    autocast,
    fused_kernels,
    segment_sum,
)

from .common import time_callable

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_tensor.json"

# Baseline medians captured on this protocol before the fast-math engine
# (float64 everywhere, unfused compositions, dict-free backward).
PRE_PR = {
    "e2e_graphcl_step": {"median_epoch_seconds": 0.2893282079999153,
                         "final_loss": 2.2099759255799754},
    "e2e_simgrace_step": {"median_epoch_seconds": 0.1317864009999994,
                          "final_loss": 1.7352337980533006},
}

# float32 tolerance for fused-vs-reference agreement (relative).
FLOAT32_RTOL = 1e-5


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.abs(b).max()), 1e-12)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale


def _assert_close(a, b, context: str) -> None:
    err = _rel_err(a, b)
    if err > FLOAT32_RTOL:
        raise AssertionError(
            f"fused/reference mismatch in {context}: rel err {err:.3e}")


# ----------------------------------------------------------------------
# Microbenchmarks: fused kernel vs reference composition
# ----------------------------------------------------------------------

def _loss_grads(fn, *arrays):
    # Leaves default to the float64 dtype policy; keep each array's own
    # dtype so the float32 microbenches actually run in float32.
    tensors = [Tensor(a, requires_grad=True, dtype=a.dtype) for a in arrays]
    fn(*tensors).backward()
    return [t.grad for t in tensors]


def bench_info_nce(n: int = 256, d: int = 128) -> dict:
    rng = np.random.default_rng(0)
    u = rng.normal(size=(n, d)).astype(np.float32)
    v = rng.normal(size=(n, d)).astype(np.float32)

    def run(flag):
        with fused_kernels(flag):
            return _loss_grads(
                lambda a, b: info_nce(a, b, tau=0.5, sim="cos"), u, v)

    for got, want in zip(run(True), run(False)):
        _assert_close(got, want, "fused_info_nce grads")
    return {
        "reference_p50": time_callable(lambda: run(False)),
        "fused_p50": time_callable(lambda: run(True)),
    }


def bench_gradient_features(n: int = 256, d: int = 128) -> dict:
    rng = np.random.default_rng(1)
    u = rng.normal(size=(n, d)).astype(np.float32)
    v = rng.normal(size=(n, d)).astype(np.float32)

    def objective(a, b):
        g, gp = infonce_gradient_features(a, b, tau=0.5, sim="cos")
        return (g * g).sum() + (gp * gp).sum()

    def run(flag):
        with fused_kernels(flag):
            return _loss_grads(objective, u, v)

    for got, want in zip(run(True), run(False)):
        _assert_close(got, want, "fused_gradient_features grads")
    return {
        "reference_p50": time_callable(lambda: run(False)),
        "fused_p50": time_callable(lambda: run(True)),
    }


def bench_linear_relu(n: int = 512, d_in: int = 128, d_out: int = 128) -> dict:
    rng = np.random.default_rng(2)
    x = rng.normal(size=(n, d_in)).astype(np.float32)
    w = rng.normal(size=(d_in, d_out)).astype(np.float32)
    b = rng.normal(size=d_out).astype(np.float32)

    def run(flag):
        from repro.tensor import fused_linear
        if flag:
            return _loss_grads(
                lambda a, ww, bb: fused_linear(
                    a, ww, bb, activation="relu").sum(), x, w, b)
        return _loss_grads(
            lambda a, ww, bb: ((a @ ww) + bb).relu().sum(), x, w, b)

    for got, want in zip(run(True), run(False)):
        _assert_close(got, want, "fused_linear grads")
    return {
        "reference_p50": time_callable(lambda: run(False)),
        "fused_p50": time_callable(lambda: run(True)),
    }


def bench_segment_sum(n: int = 4096, d: int = 64,
                      num_segments: int = 128) -> dict:
    """Sorted-id ``reduceat`` fast path vs the ``np.add.at`` fallback."""
    rng = np.random.default_rng(3)
    values = rng.normal(size=(n, d)).astype(np.float32)
    sorted_ids = np.sort(rng.integers(0, num_segments, size=n))
    shuffled = rng.permutation(n)
    unsorted_ids = sorted_ids[shuffled]

    def run_sorted():
        return _loss_grads(
            lambda t: (segment_sum(t, sorted_ids, num_segments) ** 2).sum(),
            values)

    def run_unsorted():
        return _loss_grads(
            lambda t: (segment_sum(t, unsorted_ids, num_segments) ** 2).sum(),
            values)

    expected = np.zeros((num_segments, d), dtype=np.float64)
    np.add.at(expected, sorted_ids, values.astype(np.float64))
    got = segment_sum(Tensor(values), sorted_ids, num_segments).data
    _assert_close(got, expected.astype(np.float32), "segment_sum reduceat")
    return {
        "reference_p50": time_callable(run_unsorted),
        "fused_p50": time_callable(run_sorted),
    }


def bench_getitem_slice(n: int = 4096, d: int = 64) -> dict:
    """Basic-index backward (direct assignment) vs integer-array gather."""
    rng = np.random.default_rng(4)
    x = rng.normal(size=(n, d)).astype(np.float32)
    index_array = np.arange(0, n, 2)

    def run_slice():
        return _loss_grads(lambda t: t[0:n:2].sum(), x)

    def run_gather():
        return _loss_grads(lambda t: t[index_array].sum(), x)

    _assert_close(run_slice()[0], run_gather()[0], "getitem slice backward")
    return {
        "reference_p50": time_callable(run_gather),
        "fused_p50": time_callable(run_slice),
    }


MICROBENCHES = {
    "info_nce": bench_info_nce,
    "gradient_features": bench_gradient_features,
    "linear_relu": bench_linear_relu,
    "segment_sum_sorted": bench_segment_sum,
    "getitem_slice": bench_getitem_slice,
}


def run_microbenches() -> dict:
    results = {}
    for name, fn in MICROBENCHES.items():
        entry = fn()
        entry["speedup"] = entry["reference_p50"] / max(entry["fused_p50"],
                                                        1e-12)
        results[name] = entry
    return results


# ----------------------------------------------------------------------
# End-to-end smoke-training bench
# ----------------------------------------------------------------------

def _e2e_once(cls) -> tuple[float, float]:
    """Median epoch seconds + final loss on the fixed smoke protocol."""
    with autocast("float32"):
        dataset = load_tu_dataset("PROTEINS", scale="small", seed=0)
        method = cls(dataset.num_features, hidden_dim=32, num_layers=3,
                     rng=np.random.default_rng(0))
        method = gradgcl(method, 0.5)
        # Warmup epoch, then the timed run.
        Trainer(method, GraphSteps(dataset.graphs, seed=0), epochs=1).fit()
        history = Trainer(method, GraphSteps(dataset.graphs, seed=1),
                          epochs=5).fit()
    return (statistics.median(history.epoch_seconds),
            float(history.losses[-1]))


def run_e2e(repeats: int = 3) -> dict:
    """Repeat the smoke bench and keep the best (least-contended) median."""
    results = {}
    for key, cls in (("e2e_graphcl_step", GraphCL),
                     ("e2e_simgrace_step", SimGRACE)):
        medians = []
        final_loss = None
        for _ in range(repeats):
            med, final_loss = _e2e_once(cls)
            medians.append(med)
        best = min(medians)
        pre = PRE_PR[key]["median_epoch_seconds"]
        results[key] = {
            "median_epoch_seconds": best,
            "final_loss": final_loss,
            "pre_pr_median_epoch_seconds": pre,
            "speedup": pre / best,
        }
    return results


def main() -> dict:
    payload = {
        "protocol": {
            "dataset": "PROTEINS", "scale": "small", "dataset_seed": 0,
            "hidden_dim": 32, "num_layers": 3, "gradgcl_weight": 0.5,
            "warmup": "epochs=1 seed=0", "timed": "epochs=5 seed=1",
            "statistic": "median epoch seconds, best of 3 repeats",
            "training_dtype": "float32 (autocast) + fused kernels",
        },
        "pre_pr": PRE_PR,
        "microbench": run_microbenches(),
        "e2e": run_e2e(),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for name, entry in payload["microbench"].items():
        print(f"{name:24s} ref={entry['reference_p50']*1e3:8.3f}ms "
              f"fused={entry['fused_p50']*1e3:8.3f}ms "
              f"speedup={entry['speedup']:.2f}x")
    for name, entry in payload["e2e"].items():
        print(f"{name:24s} pre={entry['pre_pr_median_epoch_seconds']:.4f}s "
              f"now={entry['median_epoch_seconds']:.4f}s "
              f"speedup={entry['speedup']:.2f}x")
    print(f"wrote {RESULT_PATH}")
    return payload


def test_tensor_ops_microbench(benchmark):
    """pytest-benchmark hook: equivalence-checked fused-vs-reference p50s."""
    from .common import run_once

    results = run_once(benchmark, run_microbenches)
    assert all(entry["fused_p50"] > 0 for entry in results.values())


if __name__ == "__main__":
    main()
