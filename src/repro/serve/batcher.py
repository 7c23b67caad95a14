"""Dynamic micro-batching: coalesce concurrent embed requests into one forward.

Serving traffic arrives as many small requests; the encoder is fastest on
one large block-diagonal :class:`~repro.graph.GraphBatch` forward (the
per-forward python/scipy overhead dominates for small graphs).  The
:class:`MicroBatcher` bridges the two: requests enter a bounded FIFO, a
single worker thread takes the oldest request, drains whatever else is
already queued (up to ``max_batch_size`` graphs), runs one forward over the
coalesced graph list, and scatters the embedding rows back to the waiting
callers.  There is no wait window: a request that finds the worker idle
runs at once, and requests that arrive during a forward queue up and ride
the next one together.

Correctness rests on the :class:`~repro.serve.FrozenEncoder` determinism
contract: each graph's embedding is bit-identical regardless of batch
composition, so coalescing is numerically invisible — a request gets the
same bytes whether it rode alone, with its own batch, or sandwiched
between strangers.

Failure is bounded on three axes (see ``docs/robustness.md``):

* **Backpressure** — when the queue is full, :meth:`submit` sheds the
  request immediately with :class:`ServiceOverloaded` (HTTP 429) instead
  of queueing unbounded latency; the ``serve.shed`` counter records every
  rejection.
* **Deadlines** — every request carries a
  :class:`~repro.faults.Deadline`; a caller never waits past it.  On
  expiry the request resolves to :class:`ServiceTimeout` (HTTP 504) via
  first-write-wins resolution, so a late forward result is discarded
  rather than racing the timeout.
* **Watchdog** — a hung forward is *tombstoned*: a monitor thread notices
  the in-flight batch outliving ``forward_timeout_ms``, fails its waiters
  with :class:`ServiceTimeout`, and hands the queue to a fresh worker
  generation.  The hung thread, on eventually returning, sees its stale
  generation and exits without touching the queue — one wedged forward
  costs its own batch, not the process.

Close/submit is race-free by construction: a small admission lock orders
every :meth:`submit` enqueue against :meth:`close`'s sentinel, so no
request can land behind the sentinel unseen; the worker and :meth:`close`
additionally drain-reject any leftovers, and the deadline wait bounds
even a hypothetical straggler.

This module and :mod:`repro.pipeline` are the only places in the library
allowed to start threads (``scripts/lint_repro.py`` enforces it): the
worker and watchdog are daemons, teardown is explicit via :meth:`close`,
and every request enqueued before the sentinel is answered before the
worker exits.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Sequence

import numpy as np

from ..faults import Deadline, default_deadline_ms, default_forward_timeout_ms
from ..faults import inject as _inject
from ..faults import record as _record_fault
from ..obs import MetricRegistry

__all__ = ["MicroBatcher", "ServiceOverloaded", "ServiceTimeout"]

DEFAULT_MAX_BATCH_SIZE = 64
DEFAULT_QUEUE_SIZE = 128

#: Fault-injection point for the coalesced forward (slow/raise/drop).
FORWARD_POINT = "serve.forward"


class ServiceOverloaded(RuntimeError):
    """The request queue is full; the caller should back off and retry."""


class ServiceTimeout(RuntimeError):
    """The request missed its deadline (HTTP 504); safe to retry."""


class _Pending:
    """One in-flight request: graphs in, an embedding block (or error) out.

    Resolution is **first-write-wins**: the worker, the watchdog, and the
    submitting caller's deadline expiry may all try to resolve; exactly
    one outcome sticks and later writes are no-ops.  That is what makes a
    tombstoned forward safe — its late rows land on an already-failed
    request and vanish.
    """

    __slots__ = ("graphs", "deadline", "done", "result", "error", "_lock",
                 "_resolved")

    def __init__(self, graphs, deadline: Deadline):
        self.graphs = list(graphs)
        self.deadline = deadline
        self.done = threading.Event()
        self.result: np.ndarray | None = None
        self.error: BaseException | None = None
        self._lock = threading.Lock()
        self._resolved = False

    def resolve(self, result: np.ndarray | None,
                error: BaseException | None = None) -> bool:
        """First write wins; returns whether this call was the winner."""
        with self._lock:
            if self._resolved:
                return False
            self._resolved = True
            self.result = result
            self.error = error
        self.done.set()
        return True

    @property
    def resolved(self) -> bool:
        return self._resolved


_SENTINEL = object()


def check_deadline_ms(ms: float, name: str = "deadline_ms") -> float:
    """Finite, positive, and within what ``Event.wait`` accepts.

    ``NaN`` fails every comparison; comparing before the ``float`` cast
    rejects an int too large for a float instead of overflowing.  ``name``
    is the parameter the message blames.
    """
    if not 0 < ms <= threading.TIMEOUT_MAX * 1000.0:
        raise ValueError(
            f"{name} must be a finite number of milliseconds in "
            f"(0, {threading.TIMEOUT_MAX * 1000.0:.0f}], got {ms}")
    return float(ms)


class MicroBatcher:
    """Coalesce concurrent embed requests into block-diagonal forwards.

    Parameters
    ----------
    forward:
        ``graphs -> (n, d) ndarray``; typically
        :meth:`repro.serve.FrozenEncoder.embed`.  Runs only on the worker
        thread, so it needs no internal locking.
    max_batch_size:
        Stop coalescing once this many *graphs* are gathered.  The batch
        that crosses the line still executes whole (requests are never
        split), so a single oversized request works — it just forms its
        own batch.
    queue_size:
        Bound on queued (not yet batched) requests; beyond it
        :meth:`submit` sheds with :class:`ServiceOverloaded`.
    deadline_ms:
        Default per-request deadline (``REPRO_DEADLINE_MS`` when unset);
        :meth:`submit` accepts a per-call override.  A request that misses
        it fails with :class:`ServiceTimeout` instead of waiting.
    forward_timeout_ms:
        Watchdog threshold: a forward still running past this is
        tombstoned and its worker generation retired
        (``REPRO_FORWARD_TIMEOUT_MS`` when unset, which itself defaults to
        the request deadline).
    metrics:
        Shared :class:`MetricRegistry` for the ``serve.*`` instruments.
    """

    def __init__(self, forward: Callable[[Sequence], np.ndarray], *,
                 max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 deadline_ms: float | None = None,
                 forward_timeout_ms: float | None = None,
                 metrics: MetricRegistry | None = None):
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}")
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        self._forward = forward
        self.max_batch_size = max_batch_size
        self.deadline_ms = check_deadline_ms(
            default_deadline_ms() if deadline_ms is None else deadline_ms)
        self.forward_timeout_ms = check_deadline_ms(
            default_forward_timeout_ms() if forward_timeout_ms is None
            else forward_timeout_ms, "forward_timeout_ms")
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._queue: queue.Queue = queue.Queue(maxsize=queue_size)
        self._closed = threading.Event()
        # Admission lock: orders submit's enqueue against close's sentinel
        # so nothing can land behind the sentinel (the old check-then-put
        # race left such a request waiting forever on a dead worker).
        self._admit = threading.Lock()
        # Worker-generation state, guarded by _state: the watchdog retires
        # a generation by bumping the counter; a stale worker returning
        # from a hung forward exits without touching the queue.
        self._state = threading.Lock()
        self._generation = 0
        self._inflight: tuple[list[_Pending], Deadline, int] | None = None
        self._worker = self._start_worker(self._generation)
        interval = min(0.05, self.forward_timeout_ms / 1000.0 / 4)
        self._watchdog_interval = max(0.005, interval)
        self._watchdog = threading.Thread(target=self._watch,
                                          name="repro-serve-watchdog",
                                          daemon=True)
        self._watchdog.start()

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def submit(self, graphs: Sequence, *,
               deadline_ms: float | None = None) -> np.ndarray:
        """Embed ``graphs``; blocks until resolved or the deadline passes.

        Raises :class:`ServiceOverloaded` immediately when the queue is
        full (load shedding — bounded latency beats unbounded queueing),
        :class:`ServiceTimeout` when the deadline expires first, and
        re-raises any exception the forward raised for this batch.
        """
        if len(graphs) == 0:
            raise ValueError("cannot embed an empty list of graphs")
        ms = (self.deadline_ms if deadline_ms is None
              else check_deadline_ms(deadline_ms))
        pending = _Pending(graphs, Deadline.after_ms(ms))
        with self._admit:
            if self._closed.is_set():
                raise RuntimeError("MicroBatcher is closed")
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                self.metrics.counter("serve.shed").inc()
                raise ServiceOverloaded(
                    f"embed queue is full ({self._queue.maxsize} requests "
                    "waiting); retry with backoff or raise --queue-size"
                ) from None
        pending.done.wait(pending.deadline.remaining_or_none())
        if not pending.resolved:
            timed_out = pending.resolve(None, ServiceTimeout(
                f"request missed its {ms:.0f} ms deadline "
                "(queue wait + forward time); retry with backoff or relax "
                "deadline_ms"))
            if timed_out:
                self._count_timeout()
        if pending.error is not None:
            raise pending.error
        return pending.result

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _start_worker(self, generation: int) -> threading.Thread:
        worker = threading.Thread(target=self._loop, args=(generation,),
                                  name=f"repro-serve-batcher-{generation}",
                                  daemon=True)
        worker.start()
        return worker

    def _loop(self, generation: int) -> None:
        while True:
            head = self._queue.get()
            if head is _SENTINEL:
                self._drain_rejected()
                return
            batch = [head]
            total = len(head.graphs)
            stop = False
            while total < self.max_batch_size:
                try:
                    follower = self._queue.get_nowait()
                except queue.Empty:
                    break
                if follower is _SENTINEL:
                    stop = True
                    break
                batch.append(follower)
                total += len(follower.graphs)
            self._execute(batch, total, generation)
            if self._stale(generation):
                # Tombstoned while the forward ran: a replacement owns the
                # queue now; this thread must not consume from it again.
                return
            if stop:
                self._drain_rejected()
                return

    def _execute(self, batch: list[_Pending], total: int,
                 generation: int) -> None:
        # Skip requests whose deadline already passed in the queue (their
        # caller has raised ServiceTimeout; computing rows for them only
        # delays the live ones).
        live = [p for p in batch
                if not p.resolved and not p.deadline.expired()]
        for pending in batch:
            if pending not in live:
                if pending.resolve(None, ServiceTimeout(
                        "request expired while queued")):
                    self._count_timeout()
        if not live:
            return
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch.graphs").observe(total)
        self.metrics.histogram("serve.batch.requests").observe(len(live))
        if len(live) > 1:
            self.metrics.counter("serve.coalesced_requests").inc(len(live))
        graphs = [graph for pending in live for graph in pending.graphs]
        self._register(live, generation)
        try:
            action = _inject(FORWARD_POINT, self.metrics)
            if action == "drop":
                # Simulated lost result: leave the waiters to their
                # deadlines (submit resolves them with ServiceTimeout).
                self.metrics.counter("serve.dropped_batches").inc()
                return
            embeddings = self._forward(graphs)
        except BaseException as exc:  # propagate to every waiting caller
            for pending in live:
                pending.resolve(None, exc)
            return
        finally:
            self._clear(generation)
        offset = 0
        for pending in live:
            rows = embeddings[offset:offset + len(pending.graphs)]
            offset += len(pending.graphs)
            pending.resolve(rows)

    # ------------------------------------------------------------------
    # Watchdog: tombstone hung forwards
    # ------------------------------------------------------------------
    def _register(self, batch: list[_Pending], generation: int) -> None:
        timeout = Deadline.after_ms(self.forward_timeout_ms)
        with self._state:
            self._inflight = (batch, timeout, generation)

    def _clear(self, generation: int) -> None:
        with self._state:
            if self._inflight is not None and self._inflight[2] == generation:
                self._inflight = None

    def _stale(self, generation: int) -> bool:
        with self._state:
            return self._generation != generation

    def _watch(self) -> None:
        while not self._closed.wait(self._watchdog_interval):
            self._tombstone_expired()

    def _tombstone_expired(self, force: bool = False) -> None:
        """Retire the worker generation whose forward outlived its budget.

        The hung thread keeps running (python threads cannot be killed)
        but is disowned: its batch is failed with :class:`ServiceTimeout`,
        a fresh worker takes over the queue, and whatever the stale thread
        eventually computes is dropped by first-write-wins resolution.
        """
        with self._state:
            if self._inflight is None:
                return
            batch, timeout, generation = self._inflight
            if generation != self._generation:
                self._inflight = None
                return
            if not force and not timeout.expired():
                return
            self._generation += 1
            replacement = self._generation
            self._inflight = None
        self.metrics.counter("serve.tombstones").inc()
        exc = ServiceTimeout(
            f"forward exceeded {self.forward_timeout_ms:.0f} ms and was "
            "tombstoned; a fresh worker has taken over")
        for pending in batch:
            if pending.resolve(None, exc):
                self._count_timeout()
        if not self._closed.is_set():
            self._worker = self._start_worker(replacement)

    def _count_timeout(self) -> None:
        _record_fault("timeouts")
        self.metrics.counter("serve.timeouts").inc()
        self.metrics.counter("faults.timeouts").inc()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting requests, drain the queue, join the worker.

        Every request enqueued before the sentinel is answered: served by
        the worker on its way out, or — if the worker is hung —
        force-resolved with :class:`ServiceTimeout` here.  Requests
        arriving during close are rejected at admission (the lock orders
        them against the sentinel), so none can hang.
        """
        with self._admit:
            if self._closed.is_set():
                return
            self._closed.set()
            try:
                self._queue.put_nowait(_SENTINEL)
            except queue.Full:
                # Worker is wedged behind a full backlog: reject the
                # backlog (those callers get "closed", not a hang) to make
                # room for the sentinel.
                self._drain_rejected()
                self._queue.put_nowait(_SENTINEL)
        self._worker.join(timeout=timeout)
        if self._worker.is_alive():
            # Hung forward at shutdown: disown it and fail its batch.
            self._tombstone_expired(force=True)
        self._watchdog.join(timeout=1.0)
        self._drain_rejected()

    def _drain_rejected(self) -> None:
        """Fail everything still queued (post-sentinel stragglers)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _SENTINEL:
                continue
            if item.resolve(None, RuntimeError("MicroBatcher is closed")):
                self.metrics.counter("serve.rejected_on_close").inc()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
