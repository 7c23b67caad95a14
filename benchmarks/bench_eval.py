"""Evaluation-engine benchmarks: fast protocol vs the reference path.

Times the paper's frozen-embedding protocol — 10-fold cross-validation
repeated 5 times on PROTEINS embeddings (GraphCL, hidden 32, 3 layers,
layer-concat readout, d = 96) — once on the reference per-fold path
(``engine="reference"``) and once on the fast engine, serial and at
``eval_workers=2``.  Both engines are asserted to return bit-identical
``(mean, std)`` pairs; the booleans go into the payload so the perf gate
fails if a regeneration ever observes a mismatch.

Wall-clock statistic is the best of :data:`TIMING_LAPS` full protocol
runs — evaluation is a single long call, so best-of is the standard
minimum-noise estimator (the same choice ``bench_pipeline`` makes).

Parallel caveat: fork workers only help with real cores.  ``cpu_count``
is recorded in the payload and, when it is 1, a ``parallel_note``
explains that worker timings measure fork overhead, not speedup —
``scripts/check_perf.py`` conditions its parallel floor on it.

Run as a script to (re)generate ``BENCH_eval.json`` at the repo root::

    PYTHONPATH=src python -m benchmarks.bench_eval
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_tu_dataset
from repro.eval import evaluate_graph_embeddings
from repro.methods import GraphCL
from repro.run import GraphSteps, Trainer
from repro.tensor import autocast

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_eval.json"

TIMING_LAPS = 5

PROTOCOL = {
    "dataset": "PROTEINS", "scale": "small", "dataset_seed": 0,
    "embeddings": "GraphCL hidden_dim=32 num_layers=3, 1 epoch seed=0 "
                  "(float32 autocast), layer-concat readout (d=96)",
    "evaluation": "10-fold CV x 5 repeats, seed 0",
    "statistic": f"best wall-clock of {TIMING_LAPS} full protocol runs",
}


def make_embeddings() -> tuple[np.ndarray, np.ndarray]:
    """Deterministic PROTEINS embeddings on the bench training protocol."""
    with autocast("float32"):
        dataset = load_tu_dataset("PROTEINS", scale="small", seed=0)
        method = GraphCL(dataset.num_features, hidden_dim=32, num_layers=3,
                         rng=np.random.default_rng(0))
        Trainer(method, GraphSteps(dataset.graphs, seed=0), epochs=1).fit()
        embeddings = method.embed(dataset.graphs)
    return np.asarray(embeddings, dtype=np.float64), dataset.labels()


def _time_protocol(embeddings, labels, *, classifier: str, engine: str,
                   workers: int | None = None,
                   laps: int = TIMING_LAPS) -> tuple[float, tuple]:
    """Best wall-clock over ``laps`` runs plus the (mean, std) result."""
    best, result = float("inf"), None
    for _ in range(laps):
        started = time.perf_counter()
        result = evaluate_graph_embeddings(
            embeddings, labels, classifier=classifier, folds=10, repeats=5,
            seed=0, engine=engine, eval_workers=workers)
        best = min(best, time.perf_counter() - started)
    return best, result


def run_classifier(embeddings, labels, classifier: str,
                   laps: int = TIMING_LAPS) -> dict:
    """Reference vs fast-serial vs fast-workers-2 for one classifier."""
    ref_s, ref = _time_protocol(embeddings, labels, classifier=classifier,
                                engine="reference", laps=laps)
    fast0_s, fast0 = _time_protocol(embeddings, labels,
                                    classifier=classifier, engine="fast",
                                    workers=0, laps=laps)
    fast2_s, fast2 = _time_protocol(embeddings, labels,
                                    classifier=classifier, engine="fast",
                                    workers=2, laps=laps)
    section = {
        "reference": {"best_seconds": ref_s,
                      "mean": ref[0], "std": ref[1]},
        "fast_serial": {"best_seconds": fast0_s,
                        "speedup_vs_reference": ref_s / fast0_s,
                        "mean": fast0[0], "std": fast0[1]},
        "fast_workers_2": {"best_seconds": fast2_s,
                           "speedup_vs_reference": ref_s / fast2_s,
                           "mean": fast2[0], "std": fast2[1]},
    }
    equivalence = {"serial": ref == fast0, "workers_2": ref == fast2}
    return {"section": section, "equivalence": equivalence}


def main(laps: int = TIMING_LAPS) -> dict:
    embeddings, labels = make_embeddings()
    payload = {"protocol": PROTOCOL, "cpu_count": os.cpu_count(),
               "equivalence": {}}
    for classifier in ("svm", "logreg"):
        run = run_classifier(embeddings, labels, classifier, laps)
        payload[classifier] = run["section"]
        for name, identical in run["equivalence"].items():
            payload["equivalence"][f"{classifier}_{name}"] = identical
    if payload["cpu_count"] == 1:
        payload["parallel_note"] = (
            "single-core box: fast_workers_2 measures fork overhead, not "
            "parallel capacity; scripts/check_perf.py skips the parallel "
            "floor and gates on fast_serial instead")
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    for classifier in ("svm", "logreg"):
        for name, entry in payload[classifier].items():
            speedup = entry.get("speedup_vs_reference", 1.0)
            print(f"{classifier}/{name:16s} best={entry['best_seconds']:.4f}s "
                  f"speedup={speedup:.2f}x acc={entry['mean']:.2f}"
                  f"±{entry['std']:.2f}")
    print(f"equivalence: {payload['equivalence']}")
    print(f"wrote {RESULT_PATH} (cpu_count={payload['cpu_count']})")
    return payload


def test_eval_bench(benchmark):
    """pytest-benchmark hook: one-lap fast-vs-reference SVM comparison."""
    from .common import run_once

    embeddings, labels = make_embeddings()

    def quick():
        return run_classifier(embeddings, labels, "svm", laps=1)

    run = run_once(benchmark, quick)
    assert run["equivalence"]["serial"]
    assert run["equivalence"]["workers_2"]


if __name__ == "__main__":
    main()
