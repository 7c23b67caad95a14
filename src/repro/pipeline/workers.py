"""Multiprocessing augmentation workers with deterministic view streams.

:class:`ViewGenerator` owns view generation for GraphCL-family methods.
Each ``(batch, view, graph)`` gets its own PCG64 stream (see
:mod:`repro.pipeline.seeding`), so the augmented views are **bit-identical
at every worker count**: ``workers=0`` runs the exact serial in-process
path, ``workers=N`` fans the batch across a fork-based
``multiprocessing.Pool`` in chunks, and both consume the same streams.
Within a chunk, a :class:`~repro.augment.base.BatchedAugmentation` draws
graph by graph, then post-processes the whole chunk at once as
:class:`~repro.augment.base.ViewArrays`; the view batches are assembled
straight from those arrays.

The augmentation objects are pickled into every task, so parent-side
mutation (JOAO re-weighting its ``RandomChoice`` distribution between
epochs) is always visible to workers — there is no stale forked copy.
``RandomChoice.last_choice`` cannot be observed across a process boundary,
so each task also reports the last choice it made; :class:`ViewPair`
carries the per-view choices and re-applies them on the parent's
augmentation objects at *consumption* time (``apply_choices``), which keeps
JOAO's post-loss read of ``last_choice`` identical to the serial order even
when prefetching has already generated the next batch's views.

**Crash recovery** (see ``docs/robustness.md``): a pool worker that dies
mid-chunk (OOM-killed, segfaulted, or chaos-injected via the
``pipeline.chunk`` fault point) loses its in-flight results — the pool
auto-respawns the process, but the lost chunks would block ``result()``
forever.  Every chunk therefore rides its own ``apply_async`` handle with
a bounded wait (``REPRO_POOL_RECOVER_S``); a chunk that misses it is
recomputed in the parent from the same SeedSequence-derived keys, which by
the determinism contract yields bit-identical views.  Crashes cost
latency, never correctness, and each replay counts into
``faults.respawns``.
"""

from __future__ import annotations

import multiprocessing
import os

from ..augment.base import ViewArrays
from ..faults import default_pool_recover_s
from ..faults import inject as _inject
from ..faults import record as _record_fault
from ..graph.batch import GraphBatch
from .seeding import stream_from_key, view_stream_keys

__all__ = ["ViewGenerator", "ViewPair", "resolve_workers"]

#: Fault-injection point for augmentation chunks (raise in any process,
#: kill only inside forked pool workers).
CHUNK_POINT = "pipeline.chunk"


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit value, else ``REPRO_WORKERS``, else 0 (serial)."""
    if workers is None:
        workers = int(os.environ.get("REPRO_WORKERS", "0"))
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _apply_chunk(augmentation, graphs, keys):
    """Augment one chunk of graphs, each under its own stream.

    Runs identically in the parent (serial path) and in pool workers.
    Batched augmentations draw graph by graph, in order, then post-process
    the whole chunk at once; any other callable runs per graph.  Returns
    the views as :class:`ViewArrays` plus the last
    ``RandomChoice.last_choice`` observed, which for the final chunk of a
    view is the batch's last choice — the value the serial loop would have
    left behind.
    """
    _inject(CHUNK_POINT)
    if getattr(augmentation, "batched", False):
        views = ViewArrays(graphs)
        augmentation.apply(views, [
            augmentation.draw(graph, stream_from_key(key))
            for graph, key in zip(graphs, keys)])
    else:
        views = ViewArrays([augmentation(graph, stream_from_key(key))
                            for graph, key in zip(graphs, keys)])
    return views, getattr(augmentation, "last_choice", None)


class ViewPair:
    """Two augmented views of one batch plus their ``RandomChoice`` picks."""

    __slots__ = ("view1", "view2", "choice1", "choice2")

    def __init__(self, view1: GraphBatch, view2: GraphBatch,
                 choice1: int | None, choice2: int | None):
        self.view1 = view1
        self.view2 = view2
        self.choice1 = choice1
        self.choice2 = choice2

    def apply_choices(self, augmentation, augmentation2) -> None:
        """Replay the recorded picks onto the parent augmentation objects.

        Applied view1-then-view2 so that when both views share one pool
        object (GraphCL's default) the surviving ``last_choice`` is view2's
        — exactly what the serial generation order left behind.
        """
        if self.choice1 is not None:
            augmentation.last_choice = self.choice1
        if self.choice2 is not None:
            augmentation2.last_choice = self.choice2


class _ReadyViews:
    """Already-materialized result (serial path / degraded pool)."""

    __slots__ = ("_pair",)

    def __init__(self, pair: ViewPair):
        self._pair = pair

    def result(self) -> ViewPair:
        return self._pair


class _PendingViews:
    """In-flight pool computation; ``result()`` blocks and assembles.

    Each chunk has its own async handle so a crashed worker costs exactly
    the chunks it held: a handle that misses the recovery timeout is
    recomputed in the parent from the same ``(augmentation, graphs,
    keys)`` task — a pure function of its arguments — so the assembled
    views are bit-identical to the crash-free run.
    """

    __slots__ = ("_handles", "_tasks", "_view1_chunks", "_recover_s")

    def __init__(self, handles, tasks, view1_chunks: int,
                 recover_s: float):
        self._handles = handles
        self._tasks = tasks
        self._view1_chunks = view1_chunks
        self._recover_s = recover_s

    def _collect(self, index: int):
        try:
            return self._handles[index].get(timeout=self._recover_s)
        except multiprocessing.TimeoutError:
            # The worker holding this chunk died (its result will never
            # arrive; the pool has already respawned the process).
            # Deterministic replay in the parent restores the output.
            _record_fault("respawns")
            return _apply_chunk(*self._tasks[index])

    def result(self) -> ViewPair:
        outs = [self._collect(i) for i in range(len(self._handles))]
        split = self._view1_chunks
        views1 = ViewArrays.concat([chunk for chunk, _ in outs[:split]])
        views2 = ViewArrays.concat([chunk for chunk, _ in outs[split:]])
        return ViewPair(views1.to_batch(), views2.to_batch(),
                        outs[split - 1][1], outs[-1][1])


class ViewGenerator:
    """Deterministic (optionally parallel) two-view generator for a batch.

    Parameters
    ----------
    augmentation / augmentation2:
        The per-view augmentation pools; ``augmentation2=None`` shares the
        first (GraphCL's default).
    root:
        Pipeline root seed, normally ``seeding.spawn_root(method_rng)``.
    workers:
        ``0`` = serial in-process generation (the default path);
        ``N > 0`` = fork-based pool of ``N`` processes.  ``None`` defers to
        ``REPRO_WORKERS``.
    chunk_size:
        Graphs per pool task; large enough to amortize pickling, small
        enough to load-balance a 64-graph batch across workers.
    recover_s:
        How long ``result()`` waits on one chunk before declaring its
        worker dead and replaying the chunk in the parent (default:
        ``REPRO_POOL_RECOVER_S`` or 60).
    """

    def __init__(self, augmentation, augmentation2=None, *, root: int,
                 workers: int | None = None, chunk_size: int = 8,
                 recover_s: float | None = None):
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if recover_s is not None and recover_s <= 0:
            raise ValueError(f"recover_s must be > 0, got {recover_s}")
        self.augmentation = augmentation
        self.augmentation2 = (augmentation2 if augmentation2 is not None
                              else augmentation)
        self.root = int(root)
        self.workers = resolve_workers(workers)
        self.chunk_size = chunk_size
        self.recover_s = recover_s
        self.counter = 0
        self._pool = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def configure(self, workers: int | None = None) -> None:
        """Change the worker count, recycling the pool if it changes."""
        workers = resolve_workers(workers)
        if workers != self.workers:
            self.shutdown()
            self.workers = workers

    def _ensure_pool(self):
        if self._pool is None and self.workers > 0:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                # No fork on this platform: degrade to the serial path,
                # which produces identical views anyway.
                self.workers = 0
                return None
            self._pool = ctx.Pool(self.workers)
        return self._pool

    def shutdown(self) -> None:
        """Tear the pool down; a later submit lazily recreates it."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __getstate__(self):
        # Pools cannot be pickled; Module.clone()/deepcopy and worker-task
        # pickling of methods that own a generator must survive.
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    def __del__(self):
        try:
            self.shutdown()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def submit(self, batch: GraphBatch):
        """Start generating both views; returns a handle with ``result()``.

        The batch counter advances on submission, so submission order —
        not completion or consumption order — defines the streams.  The
        serial path computes eagerly and returns a ready handle.
        """
        counter = self.counter
        self.counter += 1
        graphs = list(batch.graphs)
        keys1 = view_stream_keys(self.root, counter, 1, len(graphs))
        keys2 = view_stream_keys(self.root, counter, 2, len(graphs))
        pool = self._ensure_pool()
        if pool is None:
            views1, choice1 = _apply_chunk(self.augmentation, graphs, keys1)
            views2, choice2 = _apply_chunk(self.augmentation2, graphs, keys2)
            return _ReadyViews(ViewPair(views1.to_batch(), views2.to_batch(),
                                        choice1, choice2))
        tasks = []
        for aug, keys in ((self.augmentation, keys1),
                          (self.augmentation2, keys2)):
            for start in range(0, len(graphs), self.chunk_size):
                stop = start + self.chunk_size
                tasks.append((aug, graphs[start:stop], keys[start:stop]))
        view1_chunks = len(tasks) // 2
        handles = [pool.apply_async(_apply_chunk, task) for task in tasks]
        recover_s = (self.recover_s if self.recover_s is not None
                     else default_pool_recover_s())
        return _PendingViews(handles, tasks, view1_chunks, recover_s)

    def generate(self, batch: GraphBatch) -> ViewPair:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(batch).result()
