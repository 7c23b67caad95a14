"""Serving benchmarks: micro-batched throughput.

Models the serving tradeoffs directly.  The baseline is what a naive server
does — one block-diagonal forward per request, requests handled strictly in
arrival order.  The contender is the real :class:`repro.serve.EmbeddingService`
stack (micro-batcher, bounded queue, no cache so every request pays a
forward) hit by :data:`CLIENT_THREADS` concurrent client threads.  Batching
wins by amortizing per-forward overhead — python dispatch, sparse adjacency
assembly, BatchNorm bookkeeping — across coalesced requests, which is why
the speedup holds even on a single core.

Both paths are asserted to return bit-identical rows per request (the
serve==offline determinism contract); the boolean goes into the payload so
``scripts/check_perf.py --strict`` fails if a regeneration ever observes a
mismatch.

Wall-clock statistic is the best of :data:`TIMING_LAPS` full sweeps, the
same minimum-noise estimator ``bench_eval``/``bench_pipeline`` use.

Parallel caveat: client threads only overlap on real cores.  ``cpu_count``
is recorded and, when it is 1, a ``parallel_note`` explains that the
batched speedup measures batching amortization rather than concurrency —
``scripts/check_perf.py`` conditions its >=2x batched floor on it.

Run as a script to (re)generate ``BENCH_serve.json`` at the repo root::

    PYTHONPATH=src python -m benchmarks.bench_serve
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.datasets import load_tu_dataset
from repro.methods import GraphCL
from repro.run import GraphSteps, Trainer
from repro.serve import EmbeddingService, FrozenEncoder
from repro.tensor import autocast

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

TIMING_LAPS = 5
REQUESTS = 64
CLIENT_THREADS = 16

PROTOCOL = {
    "dataset": "MUTAG", "scale": "small", "dataset_seed": 0,
    "model": "GraphCL hidden_dim=32 num_layers=3, 1 epoch seed=0, "
             "frozen float32 inference",
    "load": f"{REQUESTS} single-graph requests; sequential baseline vs "
            f"{CLIENT_THREADS} client threads through the micro-batcher "
            "(cache disabled so every request pays a forward)",
    "statistic": f"best wall-clock of {TIMING_LAPS} full sweeps",
}

#: The batcher has no wait window: requests that queue while a forward
#: runs ride the next one, up to ``max_batch_size`` graphs.
SERVICE_KNOBS = {"max_batch_size": 32, "queue_size": 2 * REQUESTS,
                 "cache_entries": 0}


def make_encoder() -> tuple[FrozenEncoder, list]:
    """Deterministic frozen GraphCL encoder plus the request graphs."""
    with autocast("float32"):
        dataset = load_tu_dataset("MUTAG", scale="small", seed=0)
        method = GraphCL(dataset.num_features, hidden_dim=32, num_layers=3,
                         rng=np.random.default_rng(0))
        Trainer(method, GraphSteps(dataset.graphs, seed=0), epochs=1).fit()
    encoder = FrozenEncoder(method, dtype="float32",
                            num_features=dataset.num_features)
    return encoder, list(dataset.graphs)


def _request_graphs(graphs: list) -> list:
    """The fixed request stream: request i carries graph i mod len."""
    return [graphs[i % len(graphs)] for i in range(REQUESTS)]


def run_sequential(encoder: FrozenEncoder, graphs: list,
                   laps: int = TIMING_LAPS) -> tuple[float, list]:
    """One forward per request, strictly in arrival order."""
    requests = _request_graphs(graphs)
    best, rows = float("inf"), None
    for _ in range(laps):
        started = time.perf_counter()
        rows = [encoder.embed([graph])[0] for graph in requests]
        best = min(best, time.perf_counter() - started)
    return best, rows


def run_batched(encoder: FrozenEncoder, graphs: list,
                laps: int = TIMING_LAPS) -> tuple[float, list, dict]:
    """The real service under concurrent client threads."""
    requests = _request_graphs(graphs)
    best, rows, snapshot = float("inf"), None, {}
    with EmbeddingService(encoder, **SERVICE_KNOBS) as service:
        with ThreadPoolExecutor(max_workers=CLIENT_THREADS) as pool:
            for _ in range(laps):
                started = time.perf_counter()
                rows = [result[0] for result in pool.map(
                    lambda g: service.embed_graphs([g]), requests)]
                best = min(best, time.perf_counter() - started)
        snapshot = service.metrics_snapshot()
    return best, rows, snapshot


def main(laps: int = TIMING_LAPS) -> dict:
    encoder, graphs = make_encoder()
    seq_s, seq_rows = run_sequential(encoder, graphs, laps)
    bat_s, bat_rows, metrics = run_batched(encoder, graphs, laps)
    identical = all(np.array_equal(a, b)
                    for a, b in zip(seq_rows, bat_rows))
    payload = {
        "protocol": PROTOCOL,
        "cpu_count": os.cpu_count(),
        "service": SERVICE_KNOBS,
        "sequential": {"best_seconds": seq_s,
                       "requests_per_sec": REQUESTS / seq_s},
        "batched": {"best_seconds": bat_s,
                    "requests_per_sec": REQUESTS / bat_s,
                    "speedup_vs_sequential": seq_s / bat_s,
                    "requests_per_batch":
                        metrics.get("serve.requests_per_batch", 0.0),
                    "coalesce_rate":
                        metrics.get("serve.batch_coalesce_rate", 0.0)},
        "equivalence": {"batched_vs_sequential": bool(identical)},
    }
    if payload["cpu_count"] == 1:
        payload["parallel_note"] = (
            "single-core box: client threads cannot overlap, so the "
            "batched speedup measures coalescing amortization only; "
            "scripts/check_perf.py applies its >=2x batched floor on "
            "multi-core boxes and gates on equivalence and nonzero "
            "coalescing here")
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"sequential  best={seq_s:.4f}s "
          f"({payload['sequential']['requests_per_sec']:.1f} req/s)")
    print(f"batched     best={bat_s:.4f}s "
          f"({payload['batched']['requests_per_sec']:.1f} req/s) "
          f"speedup={seq_s / bat_s:.2f}x "
          f"coalesce_rate={payload['batched']['coalesce_rate']:.2f}")
    print(f"equivalence: {payload['equivalence']}")
    print(f"wrote {RESULT_PATH} (cpu_count={payload['cpu_count']})")
    return payload


def test_serve_bench(benchmark):
    """pytest-benchmark hook: one-lap batched equivalence."""
    from .common import run_once

    encoder, graphs = make_encoder()

    def quick():
        seq_s, seq_rows = run_sequential(encoder, graphs, laps=1)
        bat_s, bat_rows, _ = run_batched(encoder, graphs, laps=1)
        return all(np.array_equal(a, b)
                   for a, b in zip(seq_rows, bat_rows))

    assert run_once(benchmark, quick)


if __name__ == "__main__":
    main()
