"""Persistent diffusion caches keyed on a cheap graph fingerprint.

PPR and heat-kernel diffusion matrices are pure functions of a graph's
immutable structure (node count + edge list), and each costs a dense
per-graph solve or matrix power series.  MVGRL used to redo that work per
batch per epoch; a :class:`StructureCache` memoizes it across epochs under
a bounded LRU, with hit/miss/eviction/byte counters in a
:class:`repro.obs.MetricRegistry` so runs can journal cache effectiveness.

Only diffusion is cached, because only diffusion pays for its lookup.
Adjacency matrices, neighbour lists and edge keys are cheaper to rebuild
from the edge array than to fingerprint and fetch, and augmented views
are new structures every step, so :class:`repro.graph.GraphBatch` and the
augmentations never consult the cache.

Keys are ``(kind, fingerprint, *params)`` where the fingerprint hashes
``(num_nodes, edges)`` and is memoized on the graph instance.  Augmented
views are new objects with new structure, so they fingerprint differently
and can never alias their source graph.  Code that mutates a graph's
``edges`` *in place* must call :meth:`StructureCache.invalidate` (or
:func:`invalidate_structure`).

``use_structure_cache`` installs a cache as the process-local default so
deep call sites (MVGRL's diffusion operators) can reuse structures
without threading a cache argument through every signature.  Caching
never changes results — entries hold exactly what the uncached code would
recompute — so cache on/off is numerically invisible.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
from collections import OrderedDict
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..obs import MetricRegistry

__all__ = ["StructureCache", "structure_fingerprint", "invalidate_structure",
           "use_structure_cache", "active_structure_cache"]

_FINGERPRINT_ATTR = "_structure_key"

#: Default LRU bound; override per-cache or via ``REPRO_CACHE_ENTRIES``.
DEFAULT_MAX_ENTRIES = 1024


def structure_fingerprint(graph) -> str:
    """Cheap content hash of a graph's structure, memoized on the instance.

    Only ``num_nodes`` and ``edges`` participate — features and labels do
    not affect adjacency or diffusion operators.
    """
    key = getattr(graph, _FINGERPRINT_ATTR, None)
    if key is None:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(int(graph.num_nodes).to_bytes(8, "little"))
        digest.update(np.ascontiguousarray(graph.edges).tobytes())
        key = digest.hexdigest()
        setattr(graph, _FINGERPRINT_ATTR, key)
    return key


def invalidate_structure(graph) -> None:
    """Drop a graph's memoized fingerprint after an in-place edge mutation."""
    if hasattr(graph, _FINGERPRINT_ATTR):
        delattr(graph, _FINGERPRINT_ATTR)


def _entry_nbytes(value) -> int:
    if sp.issparse(value):
        csr = value
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(_entry_nbytes(part) for part in value)
    return 0


class StructureCache:
    """Bounded LRU over per-graph diffusion operators.

    Parameters
    ----------
    max_entries:
        LRU bound; the least-recently-used entry is evicted beyond it.
    metrics:
        Optional shared :class:`MetricRegistry`; a private one is created
        otherwise.  Counters: ``cache.hits`` / ``cache.misses`` /
        ``cache.evictions``; gauges: ``cache.entries`` / ``cache.bytes``.
    """

    def __init__(self, max_entries: int | None = None,
                 metrics: MetricRegistry | None = None):
        if max_entries is None:
            max_entries = int(os.environ.get("REPRO_CACHE_ENTRIES",
                                             DEFAULT_MAX_ENTRIES))
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------
    # Core get-or-build
    # ------------------------------------------------------------------
    def get(self, graph, kind: str, params: tuple,
            build: Callable[[], object]):
        """Return the cached value for ``(kind, graph, params)`` or build it.

        ``build`` must be a pure function of the graph's structure; the
        cached object is returned by reference, so treat it as immutable.
        """
        key = (kind, structure_fingerprint(graph), *params)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.metrics.counter("cache.hits").inc()
            return entry
        self.metrics.counter("cache.misses").inc()
        entry = build()
        self._entries[key] = entry
        self._bytes += _entry_nbytes(entry)
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= _entry_nbytes(evicted)
            self.metrics.counter("cache.evictions").inc()
        self.metrics.gauge("cache.entries").set(len(self._entries))
        self.metrics.gauge("cache.bytes").set(self._bytes)
        return entry

    # ------------------------------------------------------------------
    # Structural operators
    # ------------------------------------------------------------------
    @staticmethod
    def _dtype_tag() -> str:
        from ..tensor.dtype import get_default_dtype

        return np.dtype(get_default_dtype()).name

    def ppr(self, graph, alpha: float = 0.2,
            k: int | None = None) -> sp.csr_matrix:
        """Cached personalized-PageRank diffusion as CSR.

        ``k`` keeps only the top-``k`` entries per row (MVGRL's sparsified
        variant); ``None`` keeps the dense result in CSR form.
        """
        from ..graph.diffusion import ppr_diffusion, sparsify_top_k

        def build() -> sp.csr_matrix:
            dense = ppr_diffusion(graph, alpha=alpha)
            if k is not None:
                return sparsify_top_k(dense, k)
            return sp.csr_matrix(dense)

        return self.get(graph, "ppr", (float(alpha), k, self._dtype_tag()),
                        build)

    def heat(self, graph, t: float = 5.0, terms: int = 12,
             k: int | None = None) -> sp.csr_matrix:
        """Cached heat-kernel diffusion as CSR (optionally top-``k``)."""
        from ..graph.diffusion import heat_diffusion, sparsify_top_k

        def build() -> sp.csr_matrix:
            dense = heat_diffusion(graph, t=t, terms=terms)
            if k is not None:
                return sparsify_top_k(dense, k)
            return sp.csr_matrix(dense)

        return self.get(graph, "heat",
                        (float(t), int(terms), k, self._dtype_tag()), build)

    # ------------------------------------------------------------------
    # Invalidation / introspection
    # ------------------------------------------------------------------
    def invalidate(self, graph) -> int:
        """Invalidation hook for in-place structural mutation.

        Drops the graph's memoized fingerprint *and* every entry stored
        under it; returns the number of entries removed.
        """
        stale = getattr(graph, _FINGERPRINT_ATTR, None)
        invalidate_structure(graph)
        if stale is None:
            return 0
        doomed = [key for key in self._entries if key[1] == stale]
        for key in doomed:
            self._bytes -= _entry_nbytes(self._entries.pop(key))
        if doomed:
            self.metrics.gauge("cache.entries").set(len(self._entries))
            self.metrics.gauge("cache.bytes").set(self._bytes)
        return len(doomed)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0
        self.metrics.gauge("cache.entries").set(0)
        self.metrics.gauge("cache.bytes").set(0)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def stats(self) -> dict:
        """JSON-ready summary (journaled as part of a ``metrics`` event)."""
        def count(name: str) -> int:
            return (self.metrics.counter(name).value
                    if name in self.metrics else 0)

        return {"entries": len(self._entries), "bytes": self._bytes,
                "hits": count("cache.hits"), "misses": count("cache.misses"),
                "evictions": count("cache.evictions")}


# ----------------------------------------------------------------------
# Process-local default cache
# ----------------------------------------------------------------------

_ACTIVE: StructureCache | None = None


def active_structure_cache() -> StructureCache | None:
    """The cache installed by :func:`use_structure_cache`, if any."""
    return _ACTIVE


@contextlib.contextmanager
def use_structure_cache(cache: StructureCache | None):
    """Install ``cache`` as the process-local default for the block.

    Deep call sites (MVGRL's diffusion operators) consult
    :func:`active_structure_cache` so they can benefit without signature
    changes; ``None`` disables caching for the block.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous
