"""Process, environment and statistics helpers for the benchmark.

Stdlib only, so ``run.py`` stays light and its own start-up never
competes with the workload it measures.  Workers import it for the
shared metric names and the result format.
"""

from __future__ import annotations

import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Workloads listed in BENCHMARK.json.
WORKLOADS = ("train-gradgcl", "serve-unique", "serve-hot")

#: Workloads ``run.py`` also runs but BENCHMARK.json does not list.
#: eval-svm's output check (fast protocol result bit-identical to
#: ``engine="reference"``) fails on most seeds, a defect of the fast SVM
#: engine; it stays runnable so the defect shows, and it rejoins
#: WORKLOADS once the engine is fixed.
UNLISTED_WORKLOADS = ("eval-svm",)

#: End-to-end metrics (printed with ``--trace 0``), name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "graphs_per_s": "graphs/s",
    "succeeded_pct": "%",
    "peak_rss_mb": "MB",
    "accuracy_pct": "%",
}

#: Per-layer metrics (printed with ``--trace 1``), name -> unit.  Times
#: are means per timed op; a layer a workload never calls reads 0.
#: eval-svm prints EVAL_LAYER_UNITS as well.
LAYER_UNITS = {
    # train-gradgcl
    "augment.views_ms": "ms",
    "graph.batch_ms": "ms",
    "pipeline.structure_cache.hit_ratio": "ratio",
    "gnn.encoder_ms": "ms",
    "gnn.projector_ms": "ms",
    "losses.loss_f_ms": "ms",
    "core.gradient_features_ms": "ms",
    "core.loss_g_ms": "ms",
    "core.gradgcl_share_pct": "%",
    "tensor.backward_ms": "ms",
    "nn.optimizer_ms": "ms",
    "run.trainer_other_ms": "ms",
    # serve-unique / serve-hot
    "http.decode_ms": "ms",
    "http.handler_self_ms": "ms",
    "http.transport_ms": "ms",
    "serve.service_ms": "ms",
    "serve.cache_ms": "ms",
    "serve.cache.hit_ratio": "ratio",
    "serve.queue_wait_ms": "ms",
    "serve.forward_ms": "ms",
    "serve.other_ms": "ms",
    "serve.requests_per_batch": "count",
    "tensor.plan.hit_ratio": "ratio",
    "serve.failed": "count",
    # every workload
    "run.op_ms.mean": "ms",
    "run.coverage_pct": "%",
    "run.trace_overhead_pct": "%",
}

#: Per-layer metrics of the unlisted eval-svm workload, name -> unit.
EVAL_LAYER_UNITS = {
    "eval.plan_folds_ms": "ms",
    "eval.refit_ms": "ms",
    "eval.lockstep_ms": "ms",
    "eval.dispatch_ms": "ms",
    "eval.other_ms": "ms",
    "eval.fit_iterations": "count",
    "eval.refit_ratio": "ratio",
}

#: p90 is only meaningful with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Set-up is timed this many times per run; the median is reported.
SETUP_REPEATS = 5


class BenchError(RuntimeError):
    """The benchmark could not run (not an output-check failure)."""


def pinned_env() -> dict:
    """Environment for every child: one BLAS thread, fixed hash seed,
    unbuffered stdout, no inherited ``REPRO_*`` knobs, ``src`` on the
    import path."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONUNBUFFERED="1", PYTHONPATH=str(SRC))
    return env


def log(message: str) -> None:
    """Progress line on stderr (stdout carries only the result)."""
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class Child:
    """A child python process whose stdout lines arrive on a queue.

    The reader thread stamps each line with ``time.perf_counter()`` when
    it arrives, so set-up times do not include ``run.py``'s own delays.
    Children start no processes of their own (every pool is off), so
    stopping the child stops everything it ran.
    """

    def __init__(self, argv: list[str]):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *argv], cwd=ROOT, env=pinned_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put((time.perf_counter(), line.rstrip("\n")))
        self._lines.put((time.perf_counter(), None))

    def wait_line(self, predicate, timeout: float) -> tuple[float, str]:
        """First stdout line satisfying ``predicate`` and its arrival
        time; other lines are relayed to stderr."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError(f"timed out after {timeout:.0f} s waiting "
                                 f"for {self.proc.args[2:4]}")
            try:
                stamp, line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                self.proc.wait(timeout=10)
                raise BenchError(f"{self.proc.args[2:4]} exited with code "
                                 f"{self.proc.returncode} before answering")
            if predicate(line):
                return stamp, line
            log(f"  | {line}")

    def drain(self, timeout: float) -> int:
        """Relay stdout to stderr until the child exits; its exit code."""
        try:
            self.wait_line(lambda text: False, timeout)
        except BenchError:
            if self.proc.poll() is None:
                raise
        return self.proc.returncode

    def result(self, timeout: float) -> dict:
        """The JSON object a worker prints on its last stdout line."""
        _, line = self.wait_line(lambda text: text.startswith("{"), timeout)
        self.proc.wait(timeout=timeout)
        if self.proc.returncode != 0:
            raise BenchError(f"{self.proc.args[2:4]} exited with code "
                             f"{self.proc.returncode}")
        return json.loads(line)

    def stop(self, timeout: float = 10.0, graceful: bool = True) -> None:
        """SIGTERM (a server drains on it), then SIGKILL; always reaps.
        ``graceful=False`` kills at once."""
        if self.proc.poll() is None and graceful:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=timeout)
        self.proc.stdout.close()


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated percentile ``q`` in 1..99."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_metrics(op_ms: list[float], timed_s: float,
                    graphs: int) -> dict:
    """``op_ms.*``, ``ops_per_s`` and ``graphs_per_s`` of a timed phase."""
    if not op_ms:
        raise BenchError("the timed phase completed no operation")
    p90 = percentile(op_ms, 90)
    beyond = sum(1 for value in op_ms if value > p90)
    if beyond < TAIL_SAMPLES:
        log(f"warning: only {beyond} samples lie beyond op_ms.p90 "
            f"(want >= {TAIL_SAMPLES}); run longer for a stable tail")
    return {"op_ms.p50": statistics.median(op_ms), "op_ms.p90": p90,
            "ops_per_s": len(op_ms) / timed_s,
            "graphs_per_s": graphs / timed_s}


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def emit(payload: dict) -> None:
    """Print a worker's result as its last stdout line."""
    print(json.dumps(payload), flush=True)
