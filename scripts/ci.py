#!/usr/bin/env python
"""Tiered CI gate for the GradGCL reproduction (``make ci``).

Tiers run in order and the gate stops at the first failure:

* **a — static**: ``python -m compileall`` over all python trees plus the
  custom :mod:`scripts.lint_repro` rules (no ``print()`` in the library,
  no bare ``except:``).
* **b — tests**: the tier-1 suite minus ``@pytest.mark.slow``
  (``PYTHONPATH=src python -m pytest -x -q -m "not slow"``); the slow
  suites run from ``make test-all`` nightly-style.
* **c — telemetry smoke**: a 2-epoch GradGCL-wrapped GraphCL
  ``repro run`` with ``--run-dir``, then schema validation of the resulting JSONL
  journal (config / epoch with loss_f+loss_g+grad_norm+throughput /
  spectrum / engine / run_end) and a ``repro report`` render; the same
  smoke then reruns with ``--eval-workers 2`` and with ``--no-cache``, and
  the canonical journal streams must match exactly (parallel-evaluation
  determinism and cache-invisibility contracts).  Finally
  the checkpoint/resume drill: a straight 4-epoch ``repro run`` vs the
  same config interrupted after 2 epochs and continued with
  ``repro run --resume`` — canonicalized journals must be identical.
* **d — perf**: ``scripts/check_perf.py --strict``, the fused-kernel
  microbenchmarks against the committed ``BENCH_tensor.json`` baseline
  (fails on >20% regression) plus the static acceptance floors of
  ``BENCH_pipeline.json``, ``BENCH_eval.json``, and ``BENCH_serve.json``
  (pipeline/evaluation/serving speedups and fast-vs-reference
  equivalence).
* **e — serving smoke**: a 2-epoch checkpointed run, ``repro embed`` to an
  npz, then an in-process :class:`repro.serve.EmbeddingHTTPServer` hit
  with 32 concurrent ``/embed`` requests from 4 threads — every served
  row must be bit-identical to the offline npz, ``/metrics`` must show
  a nonzero ``serve.batch_coalesce_rate`` (the micro-batcher actually
  coalesced under load), and a follow-up burst of requests with fresh
  features (cache misses) must come back byte-identical to a separately
  loaded ``FrozenEncoder.embed`` of the same graphs.
* **f — chaos**: the fault-tolerance gate (see ``docs/robustness.md``).
  A seeded :class:`repro.faults.FaultPlan` kills a ``fork_map`` worker
  mid-protocol (the evaluation ``(mean, std)`` must equal serial),
  crashes a training run at epoch 2 (``--retries`` must auto-resume to a
  canonically identical journal), and injects slow/drop faults into the
  serving forward while concurrent clients — one of them malformed —
  hammer ``/embed``: every request must come back 200/400/429/504 within
  a bounded wall-clock, never hang.

Usage::

    python scripts/ci.py             # all tiers
    python scripts/ci.py --tiers ab  # static + tests only
    python scripts/ci.py --skip d    # everything but the perf gate
    python scripts/ci.py --tiers e --artifact-dir ci-artifacts
                                     # serving smoke, keep trees on failure

``.github/workflows/ci.yml`` mirrors this entry point, so local ``make ci``
and hosted CI can never drift apart.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

SMOKE_ARGS = ["run", "--method", "GraphCL", "--dataset", "MUTAG",
              "--epochs", "2", "--weight", "0.5", "--scale", "tiny",
              "--seed", "0"]

#: Where failing smoke trees (journals, checkpoints, npz files) are copied
#: so hosted CI can upload them as debugging artifacts.  None = discard.
ARTIFACT_DIR: str | None = None


def _preserve(tmp: str, status: int) -> int:
    """On failure, keep the smoke working tree for artifact upload."""
    if status and ARTIFACT_DIR:
        dest = Path(ARTIFACT_DIR) / Path(tmp).name
        shutil.copytree(tmp, dest, dirs_exist_ok=True)
        print(f"  preserved failing smoke tree at {dest}")
    return status


def _env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}:{existing}" if existing else str(SRC)
    return env


def _run(argv: list[str], **kwargs) -> int:
    print(f"  $ {' '.join(argv)}", flush=True)
    return subprocess.call(argv, cwd=REPO_ROOT, env=_env(), **kwargs)


def tier_a_static() -> int:
    """Byte-compile every python tree, then the custom lint rules."""
    trees = ["src", "scripts", "tests", "benchmarks", "examples"]
    status = _run([sys.executable, "-m", "compileall", "-q", *trees])
    if status:
        return status
    return _run([sys.executable, "scripts/lint_repro.py"])


def tier_b_tests() -> int:
    """Tier-1 suite with the slow marker deselected."""
    return _run([sys.executable, "-m", "pytest", "-x", "-q",
                 "-m", "not slow"])


def _validate_smoke_journal(run_dir: str) -> int:
    """Assert the smoke run produced a complete, schema-valid journal."""
    sys.path.insert(0, str(SRC))
    from repro.obs import events_of, validate_journal

    events = validate_journal(run_dir)
    failures = []
    configs = events_of(events, "config")
    if not configs:
        failures.append("no config event")
    elif configs[0].get("gradgcl_weight") != 0.5:
        failures.append("config event missing gradgcl_weight=0.5")
    epochs = events_of(events, "epoch")
    if len(epochs) != 2:
        failures.append(f"expected 2 epoch events, got {len(epochs)}")
    for record in epochs:
        for key in ("loss", "loss_f", "loss_g", "grad_norm", "seconds",
                    "graphs_per_sec"):
            if key not in record:
                failures.append(f"epoch event missing {key!r}")
    spectra = events_of(events, "spectrum")
    if not spectra:
        failures.append("no spectrum event")
    elif not spectra[-1].get("singular_values"):
        failures.append("spectrum event has no singular_values")
    if not events_of(events, "engine"):
        failures.append("no engine event")
    if not events_of(events, "run_end"):
        failures.append("no run_end event")
    for failure in failures:
        print(f"  journal check failed: {failure}")
    if not failures:
        print(f"  journal ok: {len(events)} schema-valid events")
    return len(failures)


def _canonical_events(run_dir: str) -> list[dict]:
    """Journal events with timing/topology stripped, for run comparison.

    Canonicalization lives in :func:`repro.obs.canonical_events` so the CI
    gate, the resume tests, and ad-hoc journal diffs all agree on which
    fields are legitimately nondeterministic.
    """
    sys.path.insert(0, str(SRC))
    from repro.obs import canonical_events, validate_journal

    return canonical_events(validate_journal(run_dir))


def tier_c_smoke() -> int:
    """2-epoch telemetry smoke train + journal validation + report render.

    Also reruns the same smoke with ``--eval-workers 2`` and with
    ``--no-cache`` and asserts the canonicalized journal streams match —
    the parallel-evaluation and cache-invisibility contracts (identical
    losses, grad norms, spectra, engine counters) enforced end to end
    through the CLI — and finishes with the checkpoint/resume drill
    (:func:`_resume_smoke`).
    """
    with tempfile.TemporaryDirectory(prefix="repro-ci-smoke-") as tmp:
        run_dir = str(Path(tmp) / "run")
        status = _run([sys.executable, "-m", "repro.cli", *SMOKE_ARGS,
                       "--run-dir", run_dir])
        if status:
            return _preserve(tmp, status)
        status = _validate_smoke_journal(run_dir)
        if status:
            return _preserve(tmp, status)
        status = _run([sys.executable, "-m", "repro.cli", "report", run_dir],
                      stdout=subprocess.DEVNULL)
        if status:
            return _preserve(tmp, status)
        for flags, label in ((["--eval-workers", "2"],
                              "at --eval-workers 2"),
                             (["--no-cache"], "with --no-cache")):
            rerun_dir = str(Path(tmp) / ("run" + "".join(flags)))
            status = _run([sys.executable, "-m", "repro.cli", *SMOKE_ARGS,
                           *flags, "--run-dir", rerun_dir])
            if status:
                return _preserve(tmp, status)
            status = _same_journal(run_dir, rerun_dir, label)
            if status:
                return _preserve(tmp, status)
        return _preserve(tmp, _resume_smoke(tmp))


def _same_journal(run_dir: str, rerun_dir: str, label: str) -> int:
    """Canonical journals of a smoke and its rerun must be identical.

    Canonicalization drops the cache-stats ``metrics`` event and the
    execution knobs (``eval_workers``, ``cache``, ...), so everything a run
    computes is compared.
    """
    first = _canonical_events(run_dir)
    again = _canonical_events(rerun_dir)
    if first != again:
        diffs = sum(a != b for a, b in zip(first, again))
        diffs += abs(len(first) - len(again))
        print(f"  determinism check failed: {diffs} journal event(s) "
              f"differ {label}")
        for a, b in zip(first, again):
            if a != b:
                print(f"    default: {a}\n    rerun:   {b}")
                break
        return 1
    print(f"  determinism ok: {len(first)} canonical events identical "
          f"{label}")
    return 0


RESUME_ARGS = ["run", "--method", "GraphCL", "--dataset", "MUTAG",
               "--scale", "tiny", "--seed", "0", "--weight", "0.5",
               "--epochs", "4", "--checkpoint-every", "2"]


def _resume_smoke(tmp: str) -> int:
    """Checkpoint/resume determinism drill through the CLI.

    Trains 4 epochs straight, then the same config interrupted after 2
    epochs (``--stop-after``) and resumed with ``repro run --resume``;
    the two runs' canonicalized journals must be identical — resuming a
    checkpoint is bit-equivalent to never having been interrupted.
    """
    straight_dir = str(Path(tmp) / "resume-straight")
    status = _run([sys.executable, "-m", "repro.cli", *RESUME_ARGS,
                   "--run-dir", straight_dir])
    if status:
        return status
    resumed_dir = str(Path(tmp) / "resume-interrupted")
    status = _run([sys.executable, "-m", "repro.cli", *RESUME_ARGS,
                   "--run-dir", resumed_dir, "--stop-after", "2"])
    if status:
        return status
    status = _run([sys.executable, "-m", "repro.cli", "run",
                   "--resume", resumed_dir])
    if status:
        return status
    straight = _canonical_events(straight_dir)
    resumed = _canonical_events(resumed_dir)
    if straight != resumed:
        diffs = sum(a != b for a, b in zip(straight, resumed))
        diffs += abs(len(straight) - len(resumed))
        print(f"  resume determinism check failed: {diffs} journal "
              "event(s) differ between a straight run and an "
              "interrupted+resumed run")
        for a, b in zip(straight, resumed):
            if a != b:
                print(f"    straight: {a}\n    resumed:  {b}")
                break
        return 1
    print(f"  resume determinism ok: {len(straight)} canonical events "
          "identical after interrupt + --resume")
    return 0


def tier_d_perf() -> int:
    """Strict perf gate: microbenches + pipeline/eval acceptance floors."""
    return _run([sys.executable, "scripts/check_perf.py", "--strict"])


SERVE_SMOKE_ARGS = ["run", "--method", "GraphCL", "--dataset", "MUTAG",
                    "--scale", "tiny", "--seed", "0", "--weight", "0.5",
                    "--epochs", "2", "--checkpoint-every", "2"]

#: Serving smoke load shape: 32 requests fired from 4 client threads.
SERVE_SMOKE_REQUESTS = 32
SERVE_SMOKE_CLIENTS = 4


def _serving_load_check(run_dir: str, offline_npz: str) -> int:
    """Concurrent ``/embed`` load must match ``repro embed`` byte for byte.

    Starts the real HTTP stack in-process (``ThreadingHTTPServer`` on an
    OS-assigned port), fires :data:`SERVE_SMOKE_REQUESTS` single-graph
    requests from :data:`SERVE_SMOKE_CLIENTS` threads, and asserts

    * every served row equals the offline npz row bit for bit (JSON float
      serialization round-trips exactly, so equality is byte equality);
    * ``/metrics`` reports a nonzero coalesce rate — the batcher has no
      wait window, so a one-shot ``slow`` fault holds the first forward
      and the other clients' requests queue behind it and share the next
      one, however many cores the runner has;
    * a burst of requests with fresh features (so the embedding cache
      cannot absorb them) returns rows equal byte for byte to a
      separately loaded ``FrozenEncoder.embed`` of the same graphs;
    * ``/healthz`` answers ok.
    """
    sys.path.insert(0, str(SRC))
    import json
    import threading
    from concurrent.futures import ThreadPoolExecutor
    from urllib.request import Request, urlopen

    import numpy as np

    from repro.datasets import load_tu_dataset
    from repro.faults import FaultPlan, use_fault_plan
    from repro.graph import Graph
    from repro.serve import (EmbeddingService, FrozenEncoder, make_server,
                             payload_from_graph)

    encoder = FrozenEncoder.from_checkpoint(run_dir)
    config = encoder.config
    graphs = load_tu_dataset(config.dataset, scale=config.scale,
                             seed=config.seed).graphs
    with np.load(offline_npz) as archive:
        offline = archive["embeddings"]

    failures = []
    service = EmbeddingService(encoder, max_batch_size=16, queue_size=256)
    server = make_server(service, port=0)
    host, port = server.server_address[:2]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        def hit(i: int):
            idx = i % len(graphs)
            body = json.dumps(
                {"graphs": [payload_from_graph(graphs[idx])]}).encode()
            request = Request(f"http://{host}:{port}/embed", data=body,
                              headers={"Content-Type": "application/json"})
            with urlopen(request, timeout=120) as response:
                payload = json.loads(response.read())
            return idx, np.asarray(payload["embeddings"],
                                   dtype=offline.dtype)

        hold_first = FaultPlan([{"point": "serve.forward", "kind": "slow",
                                 "at": 1, "delay_s": 0.2}])
        with use_fault_plan(hold_first), \
                ThreadPoolExecutor(max_workers=SERVE_SMOKE_CLIENTS) as pool:
            results = list(pool.map(hit, range(SERVE_SMOKE_REQUESTS)))
        mismatched = sorted({idx for idx, rows in results
                             if not np.array_equal(rows[0], offline[idx])})
        if mismatched:
            failures.append("served embeddings differ from the offline "
                            f"`repro embed` rows for graphs {mismatched}")
        with urlopen(f"http://{host}:{port}/metrics", timeout=30) as resp:
            metrics = json.loads(resp.read())
        coalesce_rate = metrics.get("serve.batch_coalesce_rate", 0.0)
        if not coalesce_rate:
            failures.append("micro-batcher never coalesced "
                            f"({SERVE_SMOKE_REQUESTS} concurrent requests "
                            "but serve.batch_coalesce_rate == 0)")
        # Cache misses after warm-up: same structure, fresh features.
        base = graphs[0]
        rng = np.random.default_rng(0)
        perturbed = [Graph(base.num_nodes, base.edges.copy(),
                           base.x + rng.normal(scale=0.01, size=base.x.shape))
                     for _ in range(4)]
        served_rows = []
        for graph in perturbed:
            body = json.dumps(
                {"graphs": [payload_from_graph(graph)]}).encode()
            request = Request(f"http://{host}:{port}/embed", data=body,
                              headers={"Content-Type": "application/json"})
            with urlopen(request, timeout=120) as response:
                payload = json.loads(response.read())
            served_rows.append(np.asarray(payload["embeddings"],
                                          dtype=offline.dtype)[0])
        reference = FrozenEncoder.from_checkpoint(run_dir)
        reference_rows = reference.embed(perturbed, batch_size=1)
        for i, (served, row) in enumerate(zip(served_rows, reference_rows)):
            if not np.array_equal(served, row):
                failures.append(f"served row {i} of the fresh-feature "
                                "burst differs from a separately loaded "
                                "FrozenEncoder.embed")
                break
        with urlopen(f"http://{host}:{port}/healthz", timeout=30) as resp:
            health = json.loads(resp.read())
        if health.get("status") != "ok":
            failures.append(f"healthz not ok: {health}")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    for failure in failures:
        print(f"  serving check failed: {failure}")
    if not failures:
        print(f"  serving ok: {SERVE_SMOKE_REQUESTS} concurrent requests "
              "from "
              f"{SERVE_SMOKE_CLIENTS} threads bit-identical to the offline "
              f"path, coalesce rate {coalesce_rate:.2f}, "
              f"{metrics.get('serve.batches', 0)} forward batch(es), "
              f"{len(served_rows)} cache-miss rows bit-identical to a "
              "separately loaded encoder")
    return len(failures)


def tier_e_serving() -> int:
    """Serving smoke: checkpointed run -> offline embed -> HTTP load."""
    with tempfile.TemporaryDirectory(prefix="repro-ci-serve-") as tmp:
        run_dir = str(Path(tmp) / "run")
        status = _run([sys.executable, "-m", "repro.cli", *SERVE_SMOKE_ARGS,
                       "--run-dir", run_dir])
        if status:
            return _preserve(tmp, status)
        offline_npz = str(Path(tmp) / "embeddings.npz")
        status = _run([sys.executable, "-m", "repro.cli", "embed",
                       "--run-dir", run_dir, "--out", offline_npz])
        if status:
            return _preserve(tmp, status)
        return _preserve(tmp, _serving_load_check(run_dir, offline_npz))


CHAOS_RUN_ARGS = ["run", "--method", "GraphCL", "--dataset", "MUTAG",
                  "--scale", "tiny", "--seed", "0", "--weight", "0.5",
                  "--epochs", "4", "--checkpoint-every", "1"]

#: Seeded fault plan for the training drill: the 3rd epoch start raises
#: once, so a checkpoint (epochs 0-1) already exists when the run dies.
CHAOS_TRAIN_PLAN = {
    "seed": 0,
    "rules": [{"point": "train.epoch", "kind": "raise", "at": 3}],
}

#: Serving chaos load shape.
CHAOS_REQUESTS = 24
CHAOS_CLIENTS = 6
#: Per-request ceiling (seconds): generous against CI jitter, tiny
#: against a hang — a lost waiter used to block forever.
CHAOS_HANG_S = 30.0


def _chaos_train_drill(tmp: str) -> int:
    """``repro run`` under a seeded fault plan with ``--retries``.

    The chaos run dies at the start of epoch 2 (checkpoint already on
    disk), auto-resumes, and must finish with a canonical journal
    identical to the fault-free reference — crash recovery is invisible
    in the record.
    """
    import json

    reference_dir = str(Path(tmp) / "train-reference")
    status = _run([sys.executable, "-m", "repro.cli", *CHAOS_RUN_ARGS,
                   "--run-dir", reference_dir])
    if status:
        return status
    plan_path = Path(tmp) / "train-plan.json"
    plan_path.write_text(json.dumps(CHAOS_TRAIN_PLAN))
    chaos_dir = str(Path(tmp) / "train-chaos")
    status = _run([sys.executable, "-m", "repro.cli", *CHAOS_RUN_ARGS,
                   "--run-dir", chaos_dir, "--fault-plan", str(plan_path),
                   "--retries", "2"])
    if status:
        print("  chaos train drill failed: run did not survive the "
              "injected fault despite --retries")
        return status
    reference = _canonical_events(reference_dir)
    chaos = _canonical_events(chaos_dir)
    if reference != chaos:
        diffs = sum(a != b for a, b in zip(reference, chaos))
        diffs += abs(len(reference) - len(chaos))
        print(f"  chaos train drill failed: {diffs} canonical journal "
              "event(s) differ between the fault-free run and the "
              "faulted+resumed run")
        for a, b in zip(reference, chaos):
            if a != b:
                print(f"    reference: {a}\n    chaos:     {b}")
                break
        return 1
    print(f"  chaos train ok: {len(reference)} canonical events identical "
          "after injected crash + auto-resume")
    return 0


def _chaos_eval_check() -> int:
    """Kill a ``fork_map`` worker mid-protocol; results must not change.

    A ``kill`` rule at ``eval.repeat`` fires only inside forked children
    (``os._exit``), so the parent replays the lost repeats; the graph
    protocol's ``(mean, std)`` at ``eval_workers=2`` must equal the serial
    result exactly, and the replays must show in ``faults.respawns``.
    """
    sys.path.insert(0, str(SRC))
    from unittest import mock

    import numpy as np

    from repro.eval import fast_evaluate_graph
    from repro.faults import FaultPlan, counters_snapshot, use_fault_plan

    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3), 40)
    embeddings = rng.normal(size=(len(labels), 8)) + labels[:, None]
    serial = fast_evaluate_graph(embeddings, labels, seed=0,
                                 eval_workers=0)[:2]
    before = counters_snapshot()["faults.respawns"]
    plan = FaultPlan([{"point": "eval.repeat", "kind": "kill", "at": 2}],
                     seed=0)
    # A lost repeat is replayed after REPRO_POOL_RECOVER_S (default 60 s).
    with mock.patch.dict(os.environ, {"REPRO_POOL_RECOVER_S": "5"}), \
            use_fault_plan(plan):
        parallel = fast_evaluate_graph(embeddings, labels, seed=0,
                                       eval_workers=2)[:2]
    respawns = counters_snapshot()["faults.respawns"] - before
    if parallel != serial:
        print(f"  chaos eval check failed: (mean, std) {parallel} at "
              f"eval_workers=2 after a worker kill != serial {serial}")
        return 1
    if not respawns:
        print("  chaos eval check failed: no worker was killed and "
              "replayed (faults.respawns unchanged)")
        return 1
    print(f"  chaos eval ok: (mean, std) identical to serial after "
          f"{respawns} worker kill(s) + parent replay at eval_workers=2")
    return 0


def _chaos_serving_drill(run_dir: str) -> int:
    """Bounded-latency degradation under injected serving faults.

    With slow and drop faults active at ``serve.forward`` and a tight
    per-request deadline, every request — including a malformed one —
    must come back as 200/400/429/504 within :data:`CHAOS_HANG_S`;
    a hang (the pre-fix close/submit deadlock mode) fails the tier.
    """
    sys.path.insert(0, str(SRC))
    import json
    import socket
    import threading
    import urllib.error
    from concurrent.futures import ThreadPoolExecutor
    from urllib.request import Request, urlopen

    from repro.datasets import load_tu_dataset
    from repro.faults import FaultPlan, use_fault_plan
    from repro.serve import (EmbeddingService, FrozenEncoder, make_server,
                             payload_from_graph)

    encoder = FrozenEncoder.from_checkpoint(run_dir)
    config = encoder.config
    graphs = load_tu_dataset(config.dataset, scale=config.scale,
                             seed=config.seed).graphs
    plan = FaultPlan([
        {"point": "serve.forward", "kind": "slow", "at": 2, "every": 5,
         "times": 3, "delay_s": 0.6},
        {"point": "serve.forward", "kind": "drop", "at": 4, "every": 7,
         "times": 2},
    ], seed=0)
    failures = []
    with use_fault_plan(plan):
        service = EmbeddingService(encoder, max_batch_size=4,
                                   queue_size=8, deadline_ms=2_000.0,
                                   forward_timeout_ms=300.0)
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            malformed = payload_from_graph(graphs[0])
            malformed["edges"] = [[-1, 1]]

            def hit(i: int):
                if i % 8 == 5:
                    body = {"graphs": [malformed]}
                else:
                    body = {"graphs":
                            [payload_from_graph(graphs[i % len(graphs)])]}
                request = Request(f"http://{host}:{port}/embed",
                                  data=json.dumps(body).encode(),
                                  headers={"Content-Type":
                                           "application/json"})
                started = time.perf_counter()
                try:
                    with urlopen(request, timeout=CHAOS_HANG_S) as resp:
                        resp.read()
                        status = resp.status
                except urllib.error.HTTPError as exc:
                    exc.read()
                    status = exc.code
                except (TimeoutError, socket.timeout):
                    status = None        # a hang: the one forbidden outcome
                return i, status, time.perf_counter() - started

            with ThreadPoolExecutor(max_workers=CHAOS_CLIENTS) as pool:
                results = list(pool.map(hit, range(CHAOS_REQUESTS)))
        finally:
            server.shutdown()
            server.server_close()
            service.close()
    hung = [i for i, status, _ in results if status is None]
    if hung:
        failures.append(f"requests {hung} hung past {CHAOS_HANG_S}s")
    bad = sorted({status for _, status, _ in results
                  if status is not None
                  and status not in (200, 400, 429, 504)})
    if bad:
        failures.append("unexpected status codes under chaos: "
                        f"{bad} (allowed: 200/400/429/504)")
    statuses = [status for _, status, _ in results]
    if 200 not in statuses:
        failures.append("no request succeeded under chaos")
    if 400 not in statuses:
        failures.append("malformed request was not rejected with 400")
    snapshot = service.metrics_snapshot()
    if not snapshot.get("faults.injected"):
        failures.append("fault plan never fired (faults.injected == 0)")
    slowest = max(elapsed for _, _, elapsed in results)
    for failure in failures:
        print(f"  chaos serving check failed: {failure}")
    if not failures:
        from collections import Counter

        print("  chaos serving ok: "
              f"{dict(sorted(Counter(statuses).items()))} over "
              f"{CHAOS_REQUESTS} requests, slowest {slowest:.2f}s, "
              f"{snapshot.get('faults.injected', 0)} fault(s) injected, "
              f"{snapshot.get('faults.timeouts', 0)} deadline "
              "timeout(s) — zero hangs")
    return len(failures)


def tier_f_chaos() -> int:
    """Chaos gate: seeded faults, bounded degradation, bit-identity."""
    status = _chaos_eval_check()
    if status:
        return status
    with tempfile.TemporaryDirectory(prefix="repro-ci-chaos-") as tmp:
        status = _chaos_train_drill(tmp)
        if status:
            return _preserve(tmp, status)
        # The fault-free reference run doubles as the serving checkpoint.
        reference_dir = str(Path(tmp) / "train-reference")
        return _preserve(tmp, _chaos_serving_drill(reference_dir))


TIERS = {
    "a": ("static checks (compileall + lint_repro)", tier_a_static),
    "b": ("tier-1 tests (-m 'not slow')", tier_b_tests),
    "c": ("telemetry smoke train + journal schema", tier_c_smoke),
    "d": ("perf gate vs BENCH_tensor.json (--strict)", tier_d_perf),
    "e": ("serving smoke (concurrent /embed vs offline)", tier_e_serving),
    "f": ("chaos gate (seeded faults: bounded degradation + "
          "bit-identical recovery)", tier_f_chaos),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiers", default="abcdef",
                        help="which tiers to run, in order (default: abcdef)")
    parser.add_argument("--skip", default="",
                        help="tiers to drop from the selection")
    parser.add_argument("--artifact-dir", default=None,
                        help="keep failing smoke trees (run dirs, journals, "
                             "npz files) under this directory for upload")
    args = parser.parse_args(argv)

    global ARTIFACT_DIR
    ARTIFACT_DIR = args.artifact_dir
    if ARTIFACT_DIR:
        Path(ARTIFACT_DIR).mkdir(parents=True, exist_ok=True)

    selected = [t for t in args.tiers if t not in args.skip]
    unknown = [t for t in selected if t not in TIERS]
    if unknown:
        parser.error(f"unknown tier(s) {unknown}; choose from {list(TIERS)}")

    for tier in selected:
        title, fn = TIERS[tier]
        print(f"\n=== tier {tier}: {title} ===", flush=True)
        started = time.perf_counter()
        status = fn()
        elapsed = time.perf_counter() - started
        if status:
            print(f"tier {tier} FAILED in {elapsed:.1f}s (exit {status})")
            return 1
        print(f"tier {tier} passed in {elapsed:.1f}s")
    print(f"\nCI gate green: tiers {', '.join(selected)} all passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
