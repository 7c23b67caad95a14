"""serve-unique / serve-hot client: closed-loop ``POST /embed`` load.

Run by ``run.py`` in a fresh process against a live ``repro serve``::

    python -u perfbench/serve_client.py --workload serve-hot --seed 0
        --seconds 20 --port PORT --run-dir DIR

Two threads each hold one keep-alive connection and send their next
request only after the previous reply arrived.  Every request carries
four graphs:

* ``serve-unique``: NCI1 structures cycled in order, each with fresh
  features drawn from ``(seed, request index)``, so no graph repeats and
  the embedding cache only writes and evicts;
* ``serve-hot``: four graphs drawn from a 64-graph hot set, so after the
  warm-up pass over the hot set every graph is a cache hit.

One op is one request's round trip.  Every reply must be a 200 with four
rows; every fourth request's rows are kept and, after the timed phase,
compared byte for byte with an offline ``FrozenEncoder.embed`` of the same
graphs.  The served embeddings of the whole dataset then give the SVM
accuracy.  ``/metrics`` is read before and after the timed phase.
"""

from __future__ import annotations

import argparse
import http.client
import json
import threading
import time

import numpy as np

from harness import emit, latency_metrics
from repro.datasets import load_tu_dataset
from repro.eval import evaluate_graph_embeddings
from repro.run import RunConfig
from repro.serve import FrozenEncoder, graph_from_payload, payload_from_graph

CONNECTIONS = 2
GRAPHS_PER_REQUEST = 4
HOT_SET = 64
HOT_BODIES = 256
UNIQUE_WARMUP = 10          # requests per connection
WARMUP_INDEX = 10 ** 9      # warm-up bodies never reuse a timed index
SAMPLE_EVERY = 4
ACCURACY_CHUNK = 90         # graphs per request when embedding the dataset
TIMEOUT_S = 30.0
OP_HEADER = "X-Bench-Op"


class Bodies:
    """Deterministic request bodies for one workload and seed."""

    def __init__(self, workload: str, seed: int, dataset):
        self.workload = workload
        self.seed = seed
        self.graphs = dataset.graphs
        if workload == "serve-hot":
            hot = [payload_from_graph(g) for g in self.graphs[:HOT_SET]]
            rng = np.random.default_rng([seed, HOT_SET])
            picks = [rng.choice(HOT_SET, GRAPHS_PER_REQUEST, replace=False)
                     for _ in range(HOT_BODIES)]
            self._hot = [encode_body([hot[i] for i in pick])
                         for pick in picks]
            # The warm-up pass sends every hot graph once, in order.
            self.warmup = [encode_body(hot[i:i + GRAPHS_PER_REQUEST])
                           for i in range(0, HOT_SET, GRAPHS_PER_REQUEST)]
        else:
            self.warmup = []

    def body(self, index: int) -> bytes:
        """Body of request ``index`` (unique: structure ``4i..4i+3``
        cycled, features from ``(seed, i)``)."""
        if self.workload == "serve-hot":
            return self._hot[index % HOT_BODIES]
        rng = np.random.default_rng([self.seed, index])
        payloads = []
        for k in range(GRAPHS_PER_REQUEST):
            graph = self.graphs[(GRAPHS_PER_REQUEST * index + k)
                                % len(self.graphs)]
            payload = payload_from_graph(graph)
            payload["x"] = rng.standard_normal(
                (graph.num_nodes, graph.num_features)).tolist()
            payloads.append(payload)
        return encode_body(payloads)


def encode_body(payloads: list[dict]) -> bytes:
    return json.dumps({"graphs": payloads}).encode()


def post(conn: http.client.HTTPConnection, body: bytes,
         op: str = "") -> tuple[int, bytes]:
    conn.request("POST", "/embed", body=body,
                 headers={"Content-Type": "application/json",
                          OP_HEADER: op})
    response = conn.getresponse()
    return response.status, response.read()


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}")
        return json.loads(data)
    finally:
        conn.close()


class Loop:
    """The closed loop: per-connection request indices j, j+2, ..."""

    def __init__(self, port: int, bodies: Bodies, seconds: float):
        self.port = port
        self.bodies = bodies
        self.seconds = seconds
        self.began = 0.0
        self.ops: list[tuple[str, float, float]] = []   # (op, start, end)
        self.failures: list[tuple[str, str]] = []     # (op, error)
        self.samples: list[tuple[bytes, list]] = []
        self.errors: list[BaseException] = []
        self._lock = threading.Lock()
        self._barrier = threading.Barrier(CONNECTIONS + 1)

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=TIMEOUT_S)

    def _run(self, lane: int) -> None:
        conn = self._connect()
        try:
            if self.bodies.workload == "serve-unique":
                for k in range(UNIQUE_WARMUP):
                    status, _ = post(conn, self.bodies.body(
                        WARMUP_INDEX + lane + CONNECTIONS * k))
                    if status != 200:
                        raise RuntimeError(
                            f"warm-up request answered {status}")
            self._barrier.wait(TIMEOUT_S)
            self._barrier.wait(TIMEOUT_S)
            index = lane
            deadline = self.began + self.seconds
            while time.perf_counter() < deadline:
                body = self.bodies.body(index)
                op = f"{lane}-{index}"
                start = time.perf_counter()
                try:
                    status, data = post(conn, body, op)
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = self._connect()
                    status, data = None, repr(exc).encode()
                end = time.perf_counter()
                error = self._check(index, status, data, body)
                with self._lock:
                    self.ops.append((op, start, end))
                    if error:
                        self.failures.append((op, error))
                index += CONNECTIONS
        except Exception as exc:
            self.errors.append(exc)
            self._barrier.abort()
            raise
        finally:
            conn.close()

    def _check(self, index: int, status, data: bytes, body: bytes):
        if status != 200:
            return f"status {status}: {data[:200]!r}"
        try:
            reply = json.loads(data)
        except ValueError:
            return f"reply is not JSON: {data[:200]!r}"
        rows = reply.get("embeddings")
        if (reply.get("count") != GRAPHS_PER_REQUEST or len(rows) !=
                GRAPHS_PER_REQUEST or any(len(r) != reply["dim"]
                                          for r in rows)):
            return f"malformed reply {str(reply)[:200]}"
        if index % SAMPLE_EVERY == 0:
            with self._lock:
                self.samples.append((body, rows))
        return None

    def run(self) -> dict:
        """Warm up, snapshot ``/metrics``, run the timed phase, snapshot."""
        for body in self.bodies.warmup:
            conn = self._connect()
            try:
                status, _ = post(conn, body)
            finally:
                conn.close()
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")
        threads = [threading.Thread(target=self._run, args=(lane,))
                   for lane in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        self._barrier.wait(TIMEOUT_S)
        before = get_json(self.port, "/metrics")
        self.began = time.perf_counter()
        self._barrier.wait(TIMEOUT_S)
        for thread in threads:
            thread.join(self.seconds + 2 * TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError("a client connection hung")
        if self.errors:
            raise self.errors[0]
        after = get_json(self.port, "/metrics")
        return server_counters(before, after)


def server_counters(before: dict, after: dict) -> dict:
    """Ratios and counts of the timed phase from two ``/metrics``
    snapshots."""
    def delta(name: str) -> float:
        return float(after.get(name, 0)) - float(before.get(name, 0))

    def ratio(hits: str, misses: str) -> float:
        total = delta(hits) + delta(misses)
        return delta(hits) / total if total else 0.0

    batches = delta("serve.batches")
    return {
        "serve.cache.hit_ratio": ratio("serve.cache.hits",
                                       "serve.cache.misses"),
        "tensor.plan.hit_ratio": ratio("plan.hits", "plan.misses"),
        "serve.requests_per_batch": (delta("serve.requests") / batches
                                     if batches else 0.0),
        "serve.failed": delta("serve.shed") + delta("serve.timeouts"),
    }


def check_rows(samples: list[tuple[bytes, list]], encoder) -> list[int]:
    """Indices of sampled replies whose rows differ, byte for byte, from
    the offline forward of the same request graphs."""
    graphs = [graph_from_payload(entry) for body, _ in samples
              for entry in json.loads(body)["graphs"]]
    if not graphs:
        return []
    # JSON floats round-trip exactly, so the served rows widened to
    # float64 must be byte-equal to the widened offline rows.
    offline = encoder.embed(graphs).astype(np.float64)
    bad = []
    for i, (_, rows) in enumerate(samples):
        expected = offline[GRAPHS_PER_REQUEST * i:GRAPHS_PER_REQUEST * (i + 1)]
        served = np.asarray(rows, dtype=np.float64)
        if (served.shape != expected.shape
                or served.tobytes() != expected.tobytes()):
            bad.append(i)
    return bad


def served_accuracy(port: int, dataset, seed: int) -> float:
    """SVM 10x5 accuracy of the served embeddings of the whole dataset."""
    rows = []
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        for start in range(0, len(dataset.graphs), ACCURACY_CHUNK):
            chunk = dataset.graphs[start:start + ACCURACY_CHUNK]
            status, data = post(conn, encode_body(
                [payload_from_graph(g) for g in chunk]))
            if status != 200:
                raise RuntimeError(f"dataset embed answered {status}")
            rows.extend(json.loads(data)["embeddings"])
    finally:
        conn.close()
    accuracy, _ = evaluate_graph_embeddings(
        np.asarray(rows), dataset.labels(), seed=seed, eval_workers=0)
    return accuracy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-unique", "serve-hot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    args = parser.parse_args(argv)

    config = RunConfig.from_file(f"{args.run_dir}/config.json").resolve()
    dataset = load_tu_dataset(config.dataset, scale=config.scale,
                              seed=config.seed)
    loop = Loop(args.port, Bodies(args.workload, args.seed, dataset),
                args.seconds)
    counters = loop.run()
    ops = sorted(loop.ops, key=lambda op: op[1])
    bad = check_rows(loop.samples, FrozenEncoder.from_checkpoint(args.run_dir))
    timed_s = max(end for _, _, end in ops) - loop.began
    metrics = latency_metrics(
        [1000.0 * (end - start) for _, start, end in ops], timed_s,
        GRAPHS_PER_REQUEST * (len(ops) - len(loop.failures)))
    metrics["accuracy_pct"] = served_accuracy(args.port, dataset, args.seed)
    failed = len(loop.failures) + len(bad)
    emit({"attempted": len(ops), "failed": failed,
          "warmup": (f"{len(loop.bodies.warmup)} hot-set request(s)"
                     if args.workload == "serve-hot" else
                     f"{UNIQUE_WARMUP * CONNECTIONS} request(s)"),
          "correct": failed == 0,
          "checks": {"failures": [f"{op}: {error}" for op, error
                                  in loop.failures[:10]],
                     "rows_sampled": len(loop.samples),
                     "rows_mismatched": len(bad)},
          "metrics": metrics, "counters": counters,
          "ops": [[op, 1000.0 * (end - start)] for op, start, end in ops]})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
