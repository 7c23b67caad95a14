"""Repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loops from one process, at most two threads):

* ``train-gradgcl`` - GradGCL(a=0.5)-wrapped GraphCL training on NCI1;
* ``serve-unique``  - ``POST /embed`` with never-repeating graphs;
* ``serve-hot``     - ``POST /embed`` over a 64-graph hot set;
* ``eval-svm``      - the 10-fold x 5-repeat SVM protocol.  Not listed in
  BENCHMARK.json: its output check fails on most seeds because the fast
  SVM engine's result differs from the reference engine's.

Run from the repository root.  Each workload runs in fresh child
processes with a pinned environment (see ``harness.pinned_env``).  The
eval and serve workloads first train a two-epoch checkpoint with
``repro run`` (preparation, not timed).  That checkpoint is the same for
every ``--seed`` (``CHECKPOINT_SEED``): the SVM's L-BFGS iteration count
follows the embeddings, so a per-seed checkpoint would move the eval op
by about 12% between seeds.  There ``--seed`` picks the protocol folds
(eval) and the request features and hot-set draws (serve).

With ``--trace 0`` the result holds the end-to-end metrics; set-up is
timed ``SETUP_REPEATS`` times and reported as the median.  With
``--trace 1`` the workload runs once untraced and once with the layer
spans installed, and the result holds the per-layer split plus the
tracing overhead.  The last stdout line is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when a check failed
(the result is still printed) and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from harness import (
    E2E_UNITS,
    EVAL_LAYER_UNITS,
    LAYER_UNITS,
    ROOT,
    SETUP_REPEATS,
    SRC,
    UNLISTED_WORKLOADS,
    WORKLOADS,
    BenchError,
    Child,
    log,
    proc_peak_rss_mb,
)
from spans import (
    END,
    KEYS,
    NAME,
    OP,
    PARENT,
    START,
    read_spans,
    self_times,
)

#: Hard bound on one invocation; every wait draws from what is left.
BUDGET_S = 170.0
CHECKPOINT_SEED = 0
HEALTH_POLL_S = 0.005
WORK_DIR = ROOT / ".perfbench"


class Run:
    """One invocation: arguments, deadline, scratch space, children."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.deadline = time.monotonic() + BUDGET_S
        self.scratch = (WORK_DIR /
                        f"run-{self.workload}-{args.seed}-{os.getpid()}")
        self.children: list[Child] = []
        self.run_dir = str(self.scratch / "checkpoint")
        #: Span log of the traced pass, kept after the run for inspection.
        self.trace_path = (WORK_DIR / "traces" /
                           f"{self.workload}-seed{self.seed}.jsonl")

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"over the {BUDGET_S:.0f} s budget")
        return left

    def spawn(self, argv: list[str]) -> Child:
        self.remaining()
        child = Child(argv)
        self.children.append(child)
        return child

    def finish(self, child: Child) -> None:
        """Wait for a child that prints no result; it must exit 0."""
        code = child.drain(self.remaining())
        if code != 0:
            raise BenchError(f"{child.proc.args[2:5]} exited with code "
                             f"{code}")

    def close(self) -> None:
        for child in self.children:
            child.stop()
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- shared steps ---------------------------------------------------
    def prepare_checkpoint(self) -> None:
        """Train the two-epoch checkpoint eval and serve load (untimed)."""
        self.finish(self.spawn([
            "-m", "repro.cli", "run", "--method", "GraphCL",
            "--dataset", "NCI1", "--scale", "small", "--weight", "0.5",
            "--epochs", "2", "--seed", str(CHECKPOINT_SEED),
            "--workers", "0", "--eval-workers", "0", "--run-dir", self.run_dir,
            "--checkpoint-every", "2"]))

    def start_worker(self, argv: list[str]) -> Child:
        """Spawn a worker; ready at its READY line (``child.setup_s``)."""
        child = self.spawn(argv)
        stamp, _ = child.wait_line(lambda line: line == "READY",
                                   self.remaining())
        child.setup_s = stamp - child.started
        return child

    def timed_setups(self, start) -> list[float]:
        """Set-up times of ``SETUP_REPEATS - 1`` probes started with
        ``start()``; the caller's own start makes the last sample, and the
        median absorbs the one cold start (bytecode compile) of a fresh
        checkout."""
        times = []
        for _ in range(SETUP_REPEATS - 1):
            probe = start()
            probe.stop(graceful=False)
            times.append(probe.setup_s)
        return times


# ----------------------------------------------------------------------
# Train and eval: the worker process is the workload
# ----------------------------------------------------------------------
def run_worker(run: Run, argv: list[str]) -> dict:
    if not run.trace:
        setups = run.timed_setups(
            lambda: run.start_worker(argv + ["--setup-only"]))
        main = run.start_worker(argv)
        out = main.result(run.remaining())
        out.setdefault("metrics", {})["setup_s"] = statistics.median(
            setups + [main.setup_s])
        return out
    untraced = run.start_worker(argv).result(run.remaining())
    traced = run.start_worker(
        argv + ["--trace-out", str(run.trace_path)]).result(run.remaining())
    return traced_result(untraced, traced, traced.get("layers", {}))


def run_train(run: Run) -> dict:
    return run_worker(run, ["perfbench/train_worker.py", "--seed",
                            str(run.seed), "--seconds", str(run.seconds)])


def run_eval(run: Run) -> dict:
    run.prepare_checkpoint()
    return run_worker(run, ["perfbench/eval_worker.py", "--seed",
                            str(run.seed), "--seconds", str(run.seconds),
                            "--run-dir", run.run_dir])


# ----------------------------------------------------------------------
# Serve: a `repro serve` child plus a client child
# ----------------------------------------------------------------------
def start_server(run: Run, trace_path: Path | None = None) -> Child:
    """Spawn ``repro serve --port 0``; ready at the first 200 from
    ``/healthz``."""
    serve = ["serve", "--run-dir", run.run_dir, "--port", "0"]
    argv = (["-m", "repro.cli", *serve] if trace_path is None else
            ["perfbench/serve_launcher.py", "--trace-out", str(trace_path),
             "--", *serve])
    child = run.spawn(argv)
    _, line = child.wait_line(lambda text: "http://" in text,
                              run.remaining())
    child.port = int(re.search(r"http://[^:/]+:(\d+)", line).group(1))
    while True:
        run.remaining()
        conn = http.client.HTTPConnection("127.0.0.1", child.port,
                                          timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                child.setup_s = time.perf_counter() - child.started
                return child
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(HEALTH_POLL_S)


def serve_once(run: Run, server: Child) -> dict:
    """Drive one client against ``server``; stop the server after."""
    argv = ["perfbench/serve_client.py", "--workload", run.workload,
            "--seed", str(run.seed), "--seconds", str(run.seconds),
            "--port", str(server.port), "--run-dir", run.run_dir]
    out = run.spawn(argv).result(run.remaining())
    out["metrics"]["peak_rss_mb"] = proc_peak_rss_mb(server.proc.pid)
    server.stop()
    if server.proc.returncode != 0:
        raise BenchError(f"server exited with code {server.proc.returncode}")
    return out


def run_serve(run: Run) -> dict:
    run.prepare_checkpoint()
    if not run.trace:
        setups = run.timed_setups(lambda: start_server(run))
        server = start_server(run)
        out = serve_once(run, server)
        out["metrics"]["setup_s"] = statistics.median(
            setups + [server.setup_s])
        return out
    untraced = serve_once(run, start_server(run))
    traced = serve_once(run, start_server(run, run.trace_path))
    layers = serve_layers(read_spans(run.trace_path), traced["ops"])
    layers.update(traced["counters"])
    return traced_result(untraced, traced, layers)


def serve_layers(spans: list[list], ops: list[list]) -> dict:
    """Per-request split of the client round trip from server spans.

    transport = round trip - handler span; handler self time is JSON and
    socket work in ``do_POST``; the service splits into cache, queue wait
    (submit minus the forward it rode) and forward; the service's own
    remainder is the unattributed line ``serve.other_ms``.
    """
    own = self_times(spans)
    children: dict[int, list[int]] = {}
    forwards_by_key: dict[int, list[int]] = {}
    requests = {}
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(i)
        if span[NAME] == "serve.forward":
            for key in span[KEYS]:
                forwards_by_key.setdefault(key, []).append(i)
        elif span[NAME] == "http.request" and span[OP]:
            requests[span[OP]] = i

    def rode(submit: list) -> list:
        for f in forwards_by_key.get(submit[KEYS][0], ()):
            forward = spans[f]
            if forward[START] >= submit[START] and forward[END] <= submit[END]:
                return forward
        raise BenchError("a batcher submit has no forward inside it")

    names = ("http.decode", "http.handler_self", "http.transport",
             "serve.service", "serve.cache", "serve.queue_wait",
             "serve.forward", "serve.other")
    totals = dict.fromkeys(names, 0.0)
    round_trip = 0.0
    matched = 0
    for op, rt_ms in ops:
        request = requests.get(op)
        if request is None:
            continue
        matched += 1
        round_trip += rt_ms / 1000.0
        span = spans[request]
        totals["http.transport"] += rt_ms / 1000.0 - (span[END] - span[START])
        totals["http.handler_self"] += own[request]
        for c in children.get(request, ()):
            child = spans[c]
            if child[NAME] == "http.decode":
                totals["http.decode"] += child[END] - child[START]
            elif child[NAME] == "serve.service":
                totals["serve.service"] += child[END] - child[START]
                totals["serve.other"] += own[c]
                for g in children.get(c, ()):
                    part = spans[g]
                    if part[NAME] == "serve.cache":
                        totals["serve.cache"] += part[END] - part[START]
                    elif part[NAME] == "serve.submit":
                        forward = rode(part)
                        wait = forward[END] - forward[START]
                        totals["serve.forward"] += wait
                        totals["serve.queue_wait"] += (
                            part[END] - part[START] - wait)
    if not matched:
        raise BenchError("no client op matched a server request span")
    if matched < len(ops):
        log(f"warning: {len(ops) - matched} op(s) had no server span")
    out = {f"{name}_ms": 1000.0 * value / matched
           for name, value in totals.items()}
    out["run.op_ms.mean"] = 1000.0 * round_trip / matched
    out["run.coverage_pct"] = 100.0 * (
        1.0 - totals["serve.other"] / round_trip)
    return out


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def traced_result(untraced: dict, traced: dict, layers: dict) -> dict:
    """Traced run's layers plus the tracing overhead on ``op_ms.p50``."""
    base = untraced["metrics"]["op_ms.p50"]
    layers = dict(layers)
    layers["run.trace_overhead_pct"] = 100.0 * (
        traced["metrics"]["op_ms.p50"] - base) / base
    return {"correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "warmup": traced.get("warmup"), "checks": [
                untraced.get("checks"), traced.get("checks")],
            "metrics": layers}


RUNNERS = {"train-gradgcl": run_train, "eval-svm": run_eval,
           "serve-unique": run_serve, "serve-hot": run_serve}


def format_result(out: dict, trace: bool, workload: str) -> dict:
    """The contract's result object, metrics named and with units."""
    units = LAYER_UNITS if trace else E2E_UNITS
    if trace and workload == "eval-svm":
        units = {**units, **EVAL_LAYER_UNITS}
    values = dict.fromkeys(units, 0.0)   # layers a workload never calls
    values.update(out.get("metrics", {}))
    attempted = int(out["attempted"])
    failed = int(out["failed"])
    values["succeeded_pct"] = 100.0 * (attempted - failed) / attempted
    return {"correct": bool(out["correct"]) and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(values[name]), "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + UNLISTED_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no program source at {SRC}; run from the repository root")
        return 2
    run = Run(args)
    started = time.monotonic()
    # On SIGTERM, still stop the children (the finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        out = RUNNERS[args.workload](run)
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    finally:
        run.close()
    result = format_result(out, run.trace, args.workload)
    log(f"{args.workload} seed {args.seed}: {result['attempted']} ops "
        f"timed after warm-up of {out.get('warmup')}, {result['failed']} "
        f"failed, {time.monotonic() - started:.1f} s wall")
    log(f"checks: {json.dumps(out.get('checks'))}")
    for name, metric in result["metrics"].items():
        log(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
