#!/usr/bin/env python
"""Perf gate: fresh microbench p50s vs the committed baseline.

Two checks, both run by CI tier (d):

* **Tensor microbenches** — re-runs the fused-kernel microbenchmarks from
  ``benchmarks/bench_tensor_ops.py`` and compares each fused-path p50
  against the numbers committed in ``BENCH_tensor.json``.  A >20% slowdown
  prints a warning.
* **Pipeline acceptance** — static validation of the committed
  ``BENCH_pipeline.json``: the MVGRL warm structure cache must hold its
  >=2x epoch speedup over the cold run, and the per-graph-stream view
  path (recorded as ``workers_0``) must stay within 15% of the legacy
  shared-rng baseline.  Static because the committed JSON records the
  machine it was measured on; rerunning on a differently-sized box would
  gate on hardware, not code.
* **Evaluation acceptance** — static validation of the committed
  ``BENCH_eval.json`` (``benchmarks/bench_eval.py``): every recorded
  fast-vs-reference equivalence boolean must be true (the engines return
  bit-identical ``(mean, std)``), the fast engine must hold its serial
  speedup floors over the reference per-fold path (SVM >=2x, logistic
  >=1.5x), and — only when the recorded ``cpu_count`` is > 1, since
  parallel speedup is physically impossible on one core — the parallel
  SVM protocol at ``eval_workers=2`` must reach the
  3x target.  On a single-core baseline the parallel floor is skipped
  with the payload's ``parallel_note`` annotation; the serial floors
  still gate.
* **Serving acceptance** — static validation of the committed
  ``BENCH_serve.json`` (``benchmarks/bench_serve.py``): the batched-vs-
  sequential equivalence boolean must be true (micro-batched rows are
  bit-identical to one-forward-per-request rows), the micro-batcher must
  have actually coalesced (nonzero coalesce rate), and on multi-core
  baselines the batched path must be >=2x the sequential throughput.
  Single-core baselines carry a ``parallel_note`` and gate on the
  equivalence and coalescing checks only (wall-clock on a contended
  single core is too noisy for a floor).

By default the exit code is always 0 — wall-clock on a developer's shared
box is too noisy for a hard local gate, but the warning makes regressions
visible.  With ``--strict`` (what CI tier (d) passes) any regression beyond
the threshold exits non-zero and fails the build.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/check_perf.py            # warn-only
    PYTHONPATH=src python scripts/check_perf.py --strict   # CI gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_tensor.json"
PIPELINE_BASELINE = REPO_ROOT / "BENCH_pipeline.json"
EVAL_BASELINE = REPO_ROOT / "BENCH_eval.json"
SERVE_BASELINE = REPO_ROOT / "BENCH_serve.json"
REGRESSION_THRESHOLD = 0.20

# Acceptance floors for the input-pipeline benchmarks.
MVGRL_WARM_MIN_SPEEDUP = 2.0
SERIAL_MAX_REGRESSION = 1.15

# Acceptance floors for the evaluation engine (fast vs reference path).
EVAL_SERIAL_MIN_SPEEDUP = {"svm": 2.0, "logreg": 1.5}
EVAL_PARALLEL_MIN_SPEEDUP = 3.0

# Acceptance floor for the serving stack: micro-batched vs sequential.
SERVE_MIN_SPEEDUP = 2.0

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))


def check_microbenches(threshold: float) -> int:
    """Fresh fused-kernel p50s vs BENCH_tensor.json; return warning count."""
    baseline = json.loads(BASELINE.read_text())["microbench"]

    from benchmarks.bench_tensor_ops import run_microbenches

    fresh = run_microbenches()
    warnings = 0
    for name, entry in fresh.items():
        if name not in baseline:
            print(f"{name:24s} (new bench, no baseline)")
            continue
        base_p50 = baseline[name]["fused_p50"]
        ratio = entry["fused_p50"] / max(base_p50, 1e-12)
        status = "ok"
        if ratio > 1.0 + threshold:
            status = f"WARNING: {100 * (ratio - 1):.0f}% slower than baseline"
            warnings += 1
        print(f"{name:24s} baseline={base_p50 * 1e3:8.3f}ms "
              f"fresh={entry['fused_p50'] * 1e3:8.3f}ms "
              f"ratio={ratio:.2f}  {status}")
    return warnings


def check_pipeline_baseline() -> int:
    """Validate BENCH_pipeline.json acceptance floors; return failure count."""
    payload = json.loads(PIPELINE_BASELINE.read_text())
    failures = 0

    warm = payload["mvgrl"]["warm_cache"]["speedup_vs_cold"]
    status = "ok" if warm >= MVGRL_WARM_MIN_SPEEDUP else "FAIL"
    failures += status == "FAIL"
    print(f"{'mvgrl warm cache':24s} speedup={warm:.2f}x "
          f"(floor {MVGRL_WARM_MIN_SPEEDUP:.1f}x)  {status}")

    serial = payload["graphcl"]["workers_0"]["median_epoch_seconds"]
    legacy = payload["graphcl"]["serial_legacy"]["median_epoch_seconds"]
    ratio = serial / max(legacy, 1e-12)
    status = "ok" if ratio <= SERIAL_MAX_REGRESSION else "FAIL"
    failures += status == "FAIL"
    print(f"{'view streams vs legacy':24s} ratio={ratio:.2f} "
          f"(cap {SERIAL_MAX_REGRESSION:.2f})  {status}")
    return failures


def check_eval_baseline() -> int:
    """Validate BENCH_eval.json acceptance floors; return failure count."""
    payload = json.loads(EVAL_BASELINE.read_text())
    cpu_count = payload.get("cpu_count") or 1
    failures = 0

    for name, identical in payload["equivalence"].items():
        status = "ok" if identical else "FAIL"
        failures += status == "FAIL"
        print(f"{f'eval equiv {name}':24s} identical={identical}  {status}")

    for classifier, floor in EVAL_SERIAL_MIN_SPEEDUP.items():
        serial = payload[classifier]["fast_serial"]["speedup_vs_reference"]
        status = "ok" if serial >= floor else "FAIL"
        failures += status == "FAIL"
        print(f"{f'eval {classifier} serial':24s} speedup={serial:.2f}x "
              f"(floor {floor:.1f}x)  {status}")

    par = payload["svm"]["fast_workers_2"]["speedup_vs_reference"]
    if cpu_count > 1:
        status = "ok" if par >= EVAL_PARALLEL_MIN_SPEEDUP else "FAIL"
        failures += status == "FAIL"
        print(f"{'eval svm workers=2':24s} speedup={par:.2f}x "
              f"(floor {EVAL_PARALLEL_MIN_SPEEDUP:.1f}x)  {status}")
    else:
        print(f"{'eval svm workers=2':24s} speedup={par:.2f}x "
              f"(skipped: baseline recorded on cpu_count={cpu_count})")
    return failures


def check_serve_baseline() -> int:
    """Validate BENCH_serve.json acceptance floors; return failure count."""
    payload = json.loads(SERVE_BASELINE.read_text())
    cpu_count = payload.get("cpu_count") or 1
    failures = 0

    identical = payload["equivalence"]["batched_vs_sequential"]
    status = "ok" if identical else "FAIL"
    failures += status == "FAIL"
    print(f"{'serve equivalence':24s} identical={identical}  {status}")

    coalesce = payload["batched"]["coalesce_rate"]
    status = "ok" if coalesce > 0 else "FAIL"
    failures += status == "FAIL"
    print(f"{'serve coalescing':24s} rate={coalesce:.2f} (floor >0)  "
          f"{status}")

    speedup = payload["batched"]["speedup_vs_sequential"]
    if cpu_count > 1:
        status = "ok" if speedup >= SERVE_MIN_SPEEDUP else "FAIL"
        failures += status == "FAIL"
        print(f"{'serve batched':24s} speedup={speedup:.2f}x "
              f"(floor {SERVE_MIN_SPEEDUP:.1f}x)  {status}")
    else:
        print(f"{'serve batched':24s} speedup={speedup:.2f}x "
              f"(floor skipped: baseline recorded on "
              f"cpu_count={cpu_count})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when any bench regresses past "
                             "the threshold (used by CI)")
    parser.add_argument("--threshold", type=float,
                        default=REGRESSION_THRESHOLD,
                        help="relative slowdown tolerated before flagging "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)
    for path, regen in ((BASELINE, "bench_tensor_ops"),
                        (PIPELINE_BASELINE, "bench_pipeline"),
                        (EVAL_BASELINE, "bench_eval"),
                        (SERVE_BASELINE, "bench_serve")):
        if not path.exists():
            print(f"no baseline at {path}; run "
                  f"`PYTHONPATH=src python -m benchmarks.{regen}` first")
            return 1 if args.strict else 0

    warnings = check_microbenches(args.threshold)
    print()
    failures = check_pipeline_baseline()
    print()
    failures += check_eval_baseline()
    print()
    failures += check_serve_baseline()

    if failures:
        print(f"\n{failures} acceptance floor(s) violated in "
              f"{PIPELINE_BASELINE.name} / {EVAL_BASELINE.name} / "
              f"{SERVE_BASELINE.name} — regenerate or fix the regression")
        return 1
    if warnings:
        mode = ("failing the build (--strict)" if args.strict
                else "warn-only; not failing the build")
        print(f"\n{warnings} bench(es) regressed >"
              f"{args.threshold:.0%} — investigate before merging ({mode})")
        return 1 if args.strict else 0
    print("\nall perf gates green: tensor microbenches within threshold, "
          "pipeline, evaluation, and serving acceptance floors met")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
