"""Evaluation protocols mirroring the paper's setups.

* Graph classification: frozen embeddings -> SVM with k-fold CV (SGD
  classifier for large datasets), repeated over several seeds; report
  mean ± std accuracy (Table IV protocol).
* Node classification: frozen node embeddings -> linear probe trained on the
  transductive train mask, accuracy on the test mask (Table V/VII protocol).

Both protocols run on the fast engine (:mod:`repro.eval.engine`: exact
lockstep fold solves, optional parallel CV) by default; the engine
guarantees bit-identical ``(mean, std)`` to the reference per-fold path,
which stays available behind ``engine="reference"`` /
``REPRO_FAST_EVAL=0`` and anchors the equivalence test suite.
:func:`last_eval_stats` exposes the most recent evaluation's telemetry
(solver, fallback/skip counts, timings) for the run journal.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from ..utils.seed import seeded_rng
from .classifiers import make_classifier
from .metrics import accuracy, mean_std

__all__ = ["standardize", "kfold_indices", "evaluate_graph_embeddings",
           "evaluate_node_embeddings", "fast_eval_enabled",
           "last_eval_stats"]

#: Telemetry of the most recent protocol evaluation (an
#: :class:`repro.eval.engine.EvalStats`), for the run journal.
_last_stats = None


def fast_eval_enabled() -> bool:
    """Default engine choice: fast unless ``REPRO_FAST_EVAL`` disables it."""
    return os.environ.get("REPRO_FAST_EVAL", "1").lower() not in (
        "0", "false", "off")


def last_eval_stats():
    """Stats of the most recent protocol call (None before the first)."""
    return _last_stats


def _pick_engine(engine: str | None) -> bool:
    """True for the fast engine; validates the explicit switch value."""
    if engine is None:
        return fast_eval_enabled()
    if engine not in ("fast", "reference"):
        raise ValueError(
            f"engine must be 'fast' or 'reference', got {engine!r}")
    return engine == "fast"


def _finish(mean: float, std: float, stats) -> tuple[float, float]:
    """Record stats, surface silent fold skips, return the pair."""
    global _last_stats
    _last_stats = stats
    if stats.folds_skipped:
        warnings.warn(
            f"evaluation skipped {stats.folds_skipped} degenerate fold(s) "
            "whose training split had fewer than two classes; the reported "
            "mean/std covers the remaining folds only", RuntimeWarning,
            stacklevel=3)
    return mean, std


def standardize(train: np.ndarray,
                *others: np.ndarray) -> tuple[np.ndarray, ...]:
    """Zero-mean/unit-variance scaling fit on ``train`` only."""
    mean = train.mean(axis=0, keepdims=True)
    std = train.std(axis=0, keepdims=True)
    std[std < 1e-12] = 1.0
    return tuple((arr - mean) / std for arr in (train, *others))


def kfold_indices(n: int, folds: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Shuffled, nearly equal-sized fold index arrays."""
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise ValueError(f"cannot split {n} samples into {folds} folds")
    order = rng.permutation(n)
    return [np.asarray(chunk) for chunk in np.array_split(order, folds)]


def evaluate_graph_embeddings(embeddings: np.ndarray, labels: np.ndarray,
                              *, classifier: str = "svm", folds: int = 10,
                              repeats: int = 5, seed: int = 0,
                              engine: str | None = None,
                              eval_workers: int | None = None,
                              ) -> tuple[float, float]:
    """k-fold cross-validated accuracy of a linear classifier, repeated.

    Returns ``(mean, std)`` in percent, the format of the paper's tables.
    ``engine`` selects the fast batched engine or the reference per-fold
    path (``None`` defers to ``REPRO_FAST_EVAL``; both produce identical
    numbers).  ``eval_workers`` fans repeats across a fork pool on the
    fast path (``None`` defers to ``REPRO_EVAL_WORKERS``); the result is
    bit-identical at every worker count.
    """
    from .engine import EvalStats, fast_evaluate_graph

    if _pick_engine(engine):
        mean, std, stats = fast_evaluate_graph(
            embeddings, labels, classifier=classifier, folds=folds,
            repeats=repeats, seed=seed, eval_workers=eval_workers)
        return _finish(mean, std, stats)

    started = time.perf_counter()
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    run_scores = []
    skipped = 0
    for repeat in range(repeats):
        rng = seeded_rng(seed + repeat)
        fold_list = kfold_indices(len(labels), folds, rng)
        fold_scores = []
        for i, test_idx in enumerate(fold_list):
            train_idx = np.concatenate(
                [f for j, f in enumerate(fold_list) if j != i])
            if len(np.unique(labels[train_idx])) < 2:
                skipped += 1
                continue  # degenerate fold on tiny datasets
            x_train, x_test = standardize(embeddings[train_idx],
                                          embeddings[test_idx])
            model = make_classifier(classifier, seed=seed + repeat)
            model.fit(x_train, labels[train_idx])
            fold_scores.append(accuracy(model.predict(x_test),
                                        labels[test_idx]))
        if fold_scores:
            run_scores.append(float(np.mean(fold_scores)))
    mean, std = mean_std(run_scores)
    stats = EvalStats(seconds=time.perf_counter() - started,
                      solver="reference", repeats=repeats,
                      folds_total=folds * repeats,
                      folds_fallback=folds * repeats - skipped,
                      folds_skipped=skipped)
    return _finish(100.0 * mean, 100.0 * std, stats)


def evaluate_node_embeddings(embeddings: np.ndarray, labels: np.ndarray,
                             train_mask: np.ndarray, test_mask: np.ndarray,
                             *, repeats: int = 3, seed: int = 0,
                             engine: str | None = None,
                             ) -> tuple[float, float]:
    """Linear-probe accuracy on the transductive split, repeated.

    The probe itself is deterministic given the data; repeats vary the probe
    regularization split only through subsampled training masks, matching
    the small variance the paper reports.  ``engine`` works as in
    :func:`evaluate_graph_embeddings`.
    """
    from .engine import EvalStats, fast_evaluate_node

    if _pick_engine(engine):
        mean, std, stats = fast_evaluate_node(
            embeddings, labels, train_mask, test_mask, repeats=repeats,
            seed=seed)
        return _finish(mean, std, stats)

    started = time.perf_counter()
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    train_idx = np.flatnonzero(train_mask)
    test_idx = np.flatnonzero(test_mask)
    scores = []
    for repeat in range(repeats):
        rng = seeded_rng(seed + repeat)
        take = max(2, int(round(len(train_idx) * 0.9)))
        subset = rng.choice(train_idx, size=take, replace=False)
        if len(np.unique(labels[subset])) < 2:
            subset = train_idx
        x_train, x_test = standardize(embeddings[subset],
                                      embeddings[test_idx])
        model = make_classifier("logreg")
        model.fit(x_train, labels[subset])
        scores.append(accuracy(model.predict(x_test), labels[test_idx]))
    mean, std = mean_std(scores)
    stats = EvalStats(seconds=time.perf_counter() - started,
                      solver="reference", repeats=repeats,
                      folds_total=repeats, folds_fallback=repeats)
    return _finish(100.0 * mean, 100.0 * std, stats)
