"""Shared infrastructure for the benchmark harness.

Every bench regenerates one table or figure of the paper.  Results are
printed in the pytest terminal summary (see ``conftest.py``) and written to
``benchmarks/results/<name>.txt`` so they survive output capturing.

Scaling: the ``REPRO_SCALE`` environment variable selects the workload size.

* ``bench`` (default) — minutes-scale runs on tiny datasets; the qualitative
  shapes (who wins, collapse trends, sensitivity curves) already show.
* ``small`` — the full method/dataset grids on the "small" dataset scale;
  slower but closer to the paper's tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core import gradgcl
from repro.obs import RunJournal
from repro.run import GraphSteps, NodeSteps, Trainer
from repro.utils import format_table

RESULTS_DIR = Path(__file__).parent / "results"
REPORTS: list[str] = []
_JOURNAL: RunJournal | None = None


def journal() -> RunJournal:
    """Session journal under ``benchmarks/results/`` (appends across runs).

    Every bench table is mirrored as a ``bench_table`` event, so benchmark
    output shares the run-journal schema of the training loops and can be
    rendered with ``repro report benchmarks/results``.  Set
    ``REPRO_JOURNAL=0`` to silence it (e.g. from read-only checkouts).
    """
    global _JOURNAL
    if _JOURNAL is None:
        _JOURNAL = RunJournal(RESULTS_DIR, append=True)
    return _JOURNAL


@dataclass(frozen=True)
class BenchConfig:
    """Knobs derived from REPRO_SCALE."""

    dataset_scale: str
    graph_epochs: int
    node_epochs: int
    seeds: tuple[int, ...]
    folds: int
    cv_repeats: int


def config() -> BenchConfig:
    scale = os.environ.get("REPRO_SCALE", "bench")
    if scale == "bench":
        return BenchConfig(dataset_scale="tiny", graph_epochs=10,
                           node_epochs=30, seeds=(0,), folds=4,
                           cv_repeats=2)
    if scale == "small":
        return BenchConfig(dataset_scale="small", graph_epochs=20,
                           node_epochs=40, seeds=(0, 1, 2), folds=10,
                           cv_repeats=3)
    raise ValueError(f"unknown REPRO_SCALE={scale!r}")


def full_grid() -> bool:
    """Whether to run the full method/dataset grid (small scale only)."""
    return os.environ.get("REPRO_SCALE", "bench") == "small"


def report(name: str, title: str, headers: Sequence[str],
           rows: Sequence[Sequence[object]], note: str = "") -> None:
    """Record a result table: terminal summary, results/<name>.txt, and a
    ``bench_table`` journal event in the shared telemetry schema."""
    text = f"=== {title} ===\n" + format_table(headers, rows)
    if note:
        text += f"\n{note}"
    REPORTS.append(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    if os.environ.get("REPRO_JOURNAL", "1") != "0":
        journal().log("bench_table", name=name, title=title,
                      headers=[str(h) for h in headers],
                      rows=[[str(cell) for cell in row] for row in rows],
                      note=note, scale=os.environ.get("REPRO_SCALE", "bench"))


def build_graph_variant(cls, dataset, weight: float, seed: int,
                        hidden_dim: int = 16, num_layers: int = 2,
                        **kwargs):
    """Instantiate a graph-level method, GradGCL-wrapped when weight > 0."""
    rng = np.random.default_rng(seed)
    method = cls(dataset.num_features, hidden_dim, num_layers, rng=rng,
                 **kwargs)
    if weight > 0:
        method = gradgcl(method, weight)
    return method


def build_node_variant(cls, dataset, weight: float, seed: int,
                       hidden_dim: int = 32, out_dim: int = 16, **kwargs):
    """Instantiate a node-level method, GradGCL-wrapped when weight > 0."""
    from repro.methods import MVGRLNode

    rng = np.random.default_rng(seed)
    if cls is MVGRLNode:
        method = MVGRLNode(dataset.num_features, hidden_dim, rng=rng,
                           **kwargs)
    else:
        method = cls(dataset.num_features, hidden_dim, out_dim, rng=rng,
                     **kwargs)
    if weight > 0:
        method = gradgcl(method, weight)
    return method


def graph_accuracy(cls, dataset, weight: float, cfg: BenchConfig,
                   classifier: str = "svm", **build_kwargs):
    """Train/evaluate one variant over the config's seeds; mean ± std (%)."""
    from repro.eval import evaluate_graph_embeddings

    scores, cv_stds = [], []
    for seed in cfg.seeds:
        method = build_graph_variant(cls, dataset, weight, seed,
                                     **build_kwargs)
        Trainer(method, GraphSteps(dataset.graphs, batch_size=32, seed=seed),
                epochs=cfg.graph_epochs, lr=1e-3).fit()
        acc, cv_std = evaluate_graph_embeddings(
            method.embed(dataset.graphs), dataset.labels(),
            classifier=classifier, folds=cfg.folds, repeats=cfg.cv_repeats,
            seed=seed)
        scores.append(acc)
        cv_stds.append(cv_std)
    # With one seed, report the cross-validation std instead of 0.
    spread = float(np.std(scores)) if len(scores) > 1 else float(cv_stds[0])
    return float(np.mean(scores)), spread


def node_accuracy(cls, dataset, weight: float, cfg: BenchConfig,
                  **build_kwargs):
    """Node-classification counterpart of :func:`graph_accuracy`."""
    from repro.eval import evaluate_node_embeddings

    scores, probe_stds = [], []
    for seed in cfg.seeds:
        method = build_node_variant(cls, dataset, weight, seed,
                                    **build_kwargs)
        Trainer(method, NodeSteps(dataset.graph), epochs=cfg.node_epochs,
                lr=3e-3).fit()
        acc, probe_std = evaluate_node_embeddings(
            method.embed(dataset.graph), dataset.labels(),
            dataset.train_mask, dataset.test_mask, seed=seed)
        scores.append(acc)
        probe_stds.append(probe_std)
    spread = (float(np.std(scores)) if len(scores) > 1
              else float(probe_stds[0]))
    return float(np.mean(scores)), spread


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def time_callable(fn, repeats: int = 30, warmup: int = 3):
    """Median (p50) wall-clock seconds of ``fn()`` over ``repeats`` laps.

    Used by the tensor-op microbenchmarks; the median is robust to the
    scheduler noise that individual laps on a shared box inherit.
    """
    from repro.utils import Timer

    for _ in range(warmup):
        fn()
    timer = Timer().start()
    for _ in range(repeats):
        fn()
        timer.lap()
    return timer.statistics().p50
