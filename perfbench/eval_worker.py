"""eval-svm worker: the 10-fold x 5-repeat SVM protocol on fixed embeddings.

Run by ``run.py`` in a fresh process::

    python -u perfbench/eval_worker.py --seed 0 --seconds 20 --run-dir DIR
        [--setup-only] [--trace-out FILE]

Set-up (imports, ``FrozenEncoder.from_checkpoint`` on the prepared run
directory, dataset generation and the embed) ends with a ``READY`` line.
One op is one ``evaluate_graph_embeddings(classifier="svm")`` call on the
same embeddings; the first op is warm-up.  Every op must return the same
``(mean, std)``, and after the timed phase that pair must be bit-identical
to the ``engine="reference"`` protocol.
"""

from __future__ import annotations

import argparse
import time

from harness import emit, latency_metrics, peak_rss_mb

WARMUP_OPS = 1


def install_layer_spans(recorder) -> None:
    """Wrap fold planning and the reference SVM fit used by re-fits."""
    from repro.eval import LinearSVMClassifier, engine

    recorder.wrap(engine, "plan_folds", "eval.plan_folds")
    recorder.wrap(LinearSVMClassifier, "fit", "eval.refit")


def check_eval(results: list[tuple[float, float]],
               reference: tuple[float, float]) -> dict:
    """Every op's ``(mean, std)`` must equal the reference pair exactly."""
    mismatched = [i for i, pair in enumerate(results) if pair != reference]
    return {"reference": list(reference), "ops_checked": len(results),
            "mismatched": len(mismatched), "first_mismatches": mismatched[:10],
            "ok": not mismatched}


def layer_breakdown(spans, windows, stats) -> dict:
    """Per-op means of the protocol's parts (from spans and EvalStats)."""
    from spans import NAME, assign_to_windows, self_times

    totals = {"eval.plan_folds": 0.0, "eval.refit": 0.0}
    for span, own, op in zip(spans, self_times(spans),
                             assign_to_windows(spans, windows)):
        if op >= 0:
            totals[span[NAME]] += own
    n = len(windows)
    op_total = sum(end - start for start, end in windows)
    protocol = sum(s.seconds for s in stats)
    repeats = sum(sum(s.repeat_seconds) for s in stats)
    lockstep = repeats - totals["eval.plan_folds"] - totals["eval.refit"]
    folds = sum(s.folds_total for s in stats)
    return {
        "eval.plan_folds_ms": 1000.0 * totals["eval.plan_folds"] / n,
        "eval.refit_ms": 1000.0 * totals["eval.refit"] / n,
        "eval.lockstep_ms": 1000.0 * lockstep / n,
        "eval.dispatch_ms": 1000.0 * (protocol - repeats) / n,
        "eval.other_ms": 1000.0 * (op_total - protocol) / n,
        "eval.fit_iterations": sum(s.fit_iterations for s in stats) / n,
        "eval.refit_ratio": (sum(s.folds_fallback for s in stats) / folds
                             if folds else 0.0),
        "run.op_ms.mean": 1000.0 * op_total / n,
        "run.coverage_pct": 100.0 * protocol / op_total,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.datasets import load_tu_dataset
    from repro.eval import evaluate_graph_embeddings, last_eval_stats
    from repro.run import RunConfig
    from repro.serve import FrozenEncoder

    encoder = FrozenEncoder.from_checkpoint(args.run_dir)
    config = RunConfig.from_file(f"{args.run_dir}/config.json").resolve()
    dataset = load_tu_dataset(config.dataset, scale=config.scale,
                              seed=config.seed)
    embeddings = encoder.embed(dataset.graphs)
    labels = dataset.labels()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    def protocol(**kwargs):
        return evaluate_graph_embeddings(embeddings, labels,
                                         classifier="svm", seed=args.seed,
                                         eval_workers=0, **kwargs)

    for _ in range(WARMUP_OPS):
        protocol()
    recorder = None
    if args.trace_out:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        install_layer_spans(recorder)
    windows, results, stats = [], [], []
    began = time.perf_counter()
    try:
        while time.perf_counter() - began < args.seconds:
            start = time.perf_counter()
            results.append(protocol())
            windows.append((start, time.perf_counter()))
            stats.append(last_eval_stats())
    finally:
        if recorder is not None:
            recorder.unwrap_all()
    timed_s = windows[-1][1] - began
    metrics = latency_metrics(
        [1000.0 * (end - start) for start, end in windows], timed_s,
        len(labels) * len(windows))
    check = check_eval(results, protocol(engine="reference"))
    result = {"failed": check["mismatched"], "attempted": len(windows),
              "warmup": f"{WARMUP_OPS} op(s)", "checks": check,
              "correct": check["ok"], "metrics": metrics}
    if recorder is not None:
        recorder.write(args.trace_out)
        result["layers"] = layer_breakdown(recorder.spans, windows, stats)
    metrics["accuracy_pct"] = results[0][0]
    metrics["peak_rss_mb"] = peak_rss_mb()
    emit(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
