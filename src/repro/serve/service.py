"""The embedding service: frozen encoder + LRU cache + micro-batcher.

:class:`EmbeddingService` is the process-level object behind both the
HTTP front end (``repro serve``) and in-process callers (CI tier e, the
serving benchmark).  A request flows:

1. **validate** — feature widths must match the checkpoint;
2. **cache probe** — graphs whose structure+feature fingerprint is cached
   skip the forward entirely;
3. **micro-batch** — the misses join the shared
   :class:`~repro.serve.MicroBatcher` queue and ride the next
   block-diagonal forward, alone if the worker is idle, else with
   whatever queued behind the one in flight (or the request sheds with
   :class:`~repro.serve.ServiceOverloaded` under backpressure);
4. **merge + fill** — cached rows and fresh rows are reassembled in
   request order and the fresh ones are inserted into the cache.

Every stage records into one :class:`repro.obs.MetricRegistry`
(``serve.requests`` / ``serve.graphs`` / ``serve.latency_seconds`` /
``serve.batches`` / ``serve.coalesced_requests`` / ``serve.shed`` /
``serve.cache.*``), and :meth:`EmbeddingService.log_metrics` journals the
snapshot as a standard ``metrics`` event so ``repro report`` can render a
serving session like any training run.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..faults import counters_snapshot as _fault_counters
from ..obs import MetricRegistry
from .batcher import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_QUEUE_SIZE,
    MicroBatcher,
    check_deadline_ms,
)
from .cache import EmbeddingCache
from .encoder import FrozenEncoder

__all__ = ["EmbeddingService"]


class EmbeddingService:
    """Concurrent embedding inference over one frozen encoder.

    Parameters mirror the ``repro serve`` flags; ``cache_entries=0``
    disables the embedding cache (every request takes a forward).
    """

    def __init__(self, encoder: FrozenEncoder, *,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 deadline_ms: float | None = None,
                 forward_timeout_ms: float | None = None,
                 cache_entries: int | None = None,
                 metrics: MetricRegistry | None = None):
        self.encoder = encoder
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.cache = (None if cache_entries == 0
                      else EmbeddingCache(max_entries=cache_entries,
                                          metrics=self.metrics))
        self.batcher = MicroBatcher(encoder.embed,
                                    max_batch_size=max_batch_size,
                                    queue_size=queue_size,
                                    deadline_ms=deadline_ms,
                                    forward_timeout_ms=forward_timeout_ms,
                                    metrics=self.metrics)
        self._started = time.time()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def embed_graphs(self, graphs: Sequence, *,
                     deadline_ms: float | None = None) -> np.ndarray:
        """Embed a request's graphs; rows are in request order.

        Bit-identical to ``FrozenEncoder.embed(graphs)`` (and therefore to
        the offline ``repro embed`` path) at every concurrency level: the
        cache stores exact forward outputs and batch composition is
        numerically invisible.
        """
        if len(graphs) == 0:
            raise ValueError("request carries no graphs")
        if deadline_ms is not None:  # judged even if every graph is cached
            deadline_ms = check_deadline_ms(deadline_ms)
        started = time.perf_counter()
        self.encoder.validate(graphs)
        self.metrics.counter("serve.requests").inc()
        self.metrics.counter("serve.graphs").inc(len(graphs))

        rows: list[np.ndarray | None] = [None] * len(graphs)
        misses: list[int] = []
        if self.cache is not None:
            for i, graph in enumerate(graphs):
                cached = self.cache.get(graph)
                if cached is not None:
                    rows[i] = cached
                else:
                    misses.append(i)
        else:
            misses = list(range(len(graphs)))

        if misses:
            fresh = self.batcher.submit([graphs[i] for i in misses],
                                        deadline_ms=deadline_ms)
            for slot, row in zip(misses, fresh):
                rows[slot] = row
                if self.cache is not None:
                    self.cache.put(graphs[slot], row)
        out = np.stack(rows, axis=0)
        elapsed = time.perf_counter() - started
        self.metrics.histogram("serve.latency_seconds").observe(elapsed)
        return out

    # ------------------------------------------------------------------
    # Introspection / telemetry
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """The ``/healthz`` payload."""
        info = {"status": "ok",
                "uptime_seconds": round(time.time() - self._started, 3),
                "max_batch_size": self.batcher.max_batch_size,
                "cache_enabled": self.cache is not None}
        info.update(self.encoder.describe())
        return info

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` payload: raw instruments + derived rates."""
        snapshot = self.metrics.snapshot()

        def count(name: str) -> int:
            value = snapshot.get(name)
            return int(value) if isinstance(value, (int, float)) else 0

        requests = count("serve.requests")
        coalesced = count("serve.coalesced_requests")
        batches = count("serve.batches")
        snapshot["serve.batch_coalesce_rate"] = (
            coalesced / requests if requests else 0.0)
        snapshot["serve.requests_per_batch"] = (
            requests / batches if batches else 0.0)
        snapshot["serve.uptime_seconds"] = round(
            time.time() - self._started, 3)
        # Cross-subsystem fault tally: the process-wide counters win over
        # the registry mirrors (they also count pipeline/training faults).
        snapshot.update(_fault_counters())
        return snapshot

    def log_metrics(self, journal) -> dict:
        """Emit the snapshot as a journal ``metrics`` event."""
        return journal.log("metrics", **self.metrics_snapshot())

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain in-flight requests and stop the batching worker."""
        self.batcher.close()

    def __enter__(self) -> "EmbeddingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
