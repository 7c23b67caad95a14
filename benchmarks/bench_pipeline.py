"""Input-pipeline benchmarks: per-graph view streams, structure cache.

Two measurements on the same protocol as ``bench_tensor_ops``
(PROTEINS small scale, fixed seeds, hidden 32, 3 layers, 1 warmup epoch,
5 timed epochs, median epoch seconds, best of 3 repeats):

* **GraphCL legacy vs view streams** — the pre-pipeline augmentation
  path (``view_generator=None``, shared-rng loops) against the
  per-graph deterministic streams with batch-wide post-processing
  (recorded as ``workers_0``, the name earlier payloads used for it).
* **MVGRL cold vs warm structure cache** — the PPR diffusion dominates an
  MVGRL epoch; with a persistent cache every epoch after the first reuses
  the factorized diffusion, so the warm-epoch median collapses.

Run as a script to (re)generate ``BENCH_pipeline.json`` at the repo root::

    PYTHONPATH=src python -m benchmarks.bench_pipeline
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path

import numpy as np

from repro.datasets import load_tu_dataset
from repro.methods import MVGRL, GraphCL
from repro.pipeline import StructureCache
from repro.run import GraphSteps, Trainer
from repro.tensor import autocast

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

PROTOCOL = {
    "dataset": "PROTEINS", "scale": "small", "dataset_seed": 0,
    "hidden_dim": 32, "num_layers": 3,
    "warmup": "epochs=1 seed=0", "timed": "epochs=5 seed=1",
    "statistic": "median epoch seconds, best of 3 repeats",
    "training_dtype": "float32 (autocast)",
}


def _graphcl_once(*, legacy: bool = False) -> tuple[float, float]:
    with autocast("float32"):
        dataset = load_tu_dataset("PROTEINS", scale="small", seed=0)
        method = GraphCL(dataset.num_features, hidden_dim=32, num_layers=3,
                        rng=np.random.default_rng(0))
        if legacy:
            # Pre-pipeline augmentation path: per-batch shared-rng loops.
            method.view_generator = None
        Trainer(method, GraphSteps(dataset.graphs, seed=0),
                epochs=1).fit()  # warmup
        history = Trainer(method, GraphSteps(dataset.graphs, seed=1),
                          epochs=5).fit()
    return (statistics.median(history.epoch_seconds),
            float(history.losses[-1]))


def _mvgrl_once(cache: StructureCache | None) -> tuple[float, float]:
    with autocast("float32"):
        dataset = load_tu_dataset("PROTEINS", scale="small", seed=0)
        method = MVGRL(dataset.num_features, hidden_dim=32, num_layers=3,
                       rng=np.random.default_rng(0))
        # The warmup epoch populates the cache, so with ``cache`` given all
        # five timed epochs run warm — the steady-state regime.
        Trainer(method, GraphSteps(dataset.graphs, seed=0), epochs=1,
                structure_cache=cache).fit()
        history = Trainer(method, GraphSteps(dataset.graphs, seed=1), epochs=5,
                          structure_cache=cache).fit()
    return (statistics.median(history.epoch_seconds),
            float(history.losses[-1]))


def _best_of(fn, repeats: int = 3) -> dict:
    medians, final_loss = [], None
    for _ in range(repeats):
        med, final_loss = fn()
        medians.append(med)
    return {"median_epoch_seconds": min(medians), "final_loss": final_loss}


def run_graphcl(repeats: int = 3) -> dict:
    results = {
        "serial_legacy": _best_of(lambda: _graphcl_once(legacy=True),
                                  repeats),
        "workers_0": _best_of(_graphcl_once, repeats),
    }
    base = results["serial_legacy"]["median_epoch_seconds"]
    for entry in results.values():
        entry["speedup_vs_serial"] = base / entry["median_epoch_seconds"]
    return results


def run_mvgrl(repeats: int = 3) -> dict:
    results = {
        "cold": _best_of(lambda: _mvgrl_once(None), repeats),
        "warm_cache": _best_of(
            lambda: _mvgrl_once(StructureCache()), repeats),
    }
    cold = results["cold"]["median_epoch_seconds"]
    for entry in results.values():
        entry["speedup_vs_cold"] = cold / entry["median_epoch_seconds"]
    return results


def main() -> dict:
    payload = {
        "protocol": PROTOCOL,
        "cpu_count": os.cpu_count(),
        "graphcl": run_graphcl(),
        "mvgrl": run_mvgrl(),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for section in ("graphcl", "mvgrl"):
        for name, entry in payload[section].items():
            speedup = entry.get("speedup_vs_serial",
                                entry.get("speedup_vs_cold"))
            print(f"{section}/{name:16s} "
                  f"median={entry['median_epoch_seconds']:.4f}s "
                  f"speedup={speedup:.2f}x")
    print(f"wrote {RESULT_PATH} (cpu_count={payload['cpu_count']})")
    return payload


def test_pipeline_bench(benchmark):
    """pytest-benchmark hook: one warm-cache MVGRL + one GraphCL run."""
    from .common import run_once

    def quick():
        return {
            "graphcl_workers0": _best_of(_graphcl_once, 1),
            "mvgrl_warm": _best_of(
                lambda: _mvgrl_once(StructureCache()), 1),
        }

    results = run_once(benchmark, quick)
    assert all(entry["median_epoch_seconds"] > 0
               for entry in results.values())


if __name__ == "__main__":
    main()
