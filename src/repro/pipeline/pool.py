"""The repo's one fork pool: fan-out for deterministic task units.

The evaluation engine parallelizes cross-validation repeats with it:

* ``workers=0`` runs the exact serial in-process path;
* ``workers=N`` fans items across a fork-based ``multiprocessing.Pool``
  with ``chunksize=1`` so task units load-balance;
* platforms without ``fork`` degrade to the serial path.

Determinism contract: the caller's task function must depend only on its
item (plus the immutable shared context), never on execution order or
process identity — then results are bit-identical at every worker count
because ``fork_map`` preserves item order in its output.

Large shared state (an embedding matrix, say) should ride in ``context``
rather than inside every item: it is published to a module global
*before* the pool forks, so children inherit it through copy-on-write
memory instead of per-task pickling.

Crash recovery: each item has its own async handle with a bounded wait
(``REPRO_POOL_RECOVER_S``); an item whose worker died is recomputed in
the parent — bit-identical by the purity contract above — and counted
into ``faults.respawns``.  A dead worker costs latency, never results.
"""

from __future__ import annotations

import multiprocessing

from ..faults import default_pool_recover_s
from ..faults import record as _record_fault

__all__ = ["fork_map", "map_context"]

#: Shared read-only context for the duration of one ``fork_map`` call.
#: Set in the parent before the pool is created so forked children see it.
_CONTEXT = None


def map_context():
    """The ``context`` object of the enclosing :func:`fork_map` call.

    Valid inside task functions only (parent process on the serial path,
    forked children on the pool path); ``None`` outside a call.
    """
    return _CONTEXT


def fork_map(fn, items, *, workers: int, context=None,
             recover_s: float | None = None) -> list:
    """Apply ``fn`` to every item, optionally across a fork pool.

    Returns results in item order.  ``workers=0``, a single item, or a
    fork-less platform all take the serial path, which calls ``fn``
    directly in-process.  An item whose worker crashes (its result
    misses ``recover_s``, default ``REPRO_POOL_RECOVER_S``) is recomputed
    in the parent.
    """
    global _CONTEXT
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    items = list(items)
    if recover_s is None:
        recover_s = default_pool_recover_s()
    _CONTEXT = context
    try:
        if workers > 0 and len(items) > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:
                ctx = None
            if ctx is not None:
                with ctx.Pool(min(workers, len(items))) as pool:
                    handles = [pool.apply_async(fn, (item,))
                               for item in items]
                    results = []
                    for handle, item in zip(handles, items):
                        try:
                            results.append(handle.get(timeout=recover_s))
                        except multiprocessing.TimeoutError:
                            # Worker died holding this item; replay it
                            # in-process (pure fn -> identical result).
                            _record_fault("respawns")
                            results.append(fn(item))
                    return results
        return [fn(item) for item in items]
    finally:
        _CONTEXT = None
