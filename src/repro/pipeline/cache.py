"""One bounded LRU, and the diffusion cache built on it.

:class:`LRU` is the repo's only least-recently-used cache: a thread-safe
``OrderedDict`` bounded by entry count, with byte accounting and
``<prefix>.hits`` / ``.misses`` / ``.evictions`` counters and
``<prefix>.entries`` / ``.bytes`` gauges in a
:class:`repro.obs.MetricRegistry`.  Two thin subclasses use it: the
:class:`StructureCache` here (prefix ``cache``) and
:class:`repro.serve.EmbeddingCache` (prefix ``serve.cache``).

PPR and heat-kernel diffusion matrices are pure functions of a graph's
structure (node count + edge list), and each costs a dense per-graph
solve or matrix power series.  MVGRL used to redo that work per batch per
epoch; a :class:`StructureCache` memoizes it across epochs.

Only diffusion is cached, because only diffusion pays for its lookup.
Adjacency matrices, neighbour lists and edge keys are cheaper to rebuild
from the edge array than to fingerprint and fetch, and augmented views
are new structures every step, so :class:`repro.graph.GraphBatch` and the
augmentations never consult the cache.

Keys are ``(kind, fingerprint, *params)`` where the fingerprint hashes
``(num_nodes, edges)`` and is memoized on the graph instance.  Graphs are
never edited in place once fingerprinted: augmented views, ``copy()`` and
every rebuilt graph are new objects with their own fingerprint, so they
can never alias their source graph.

``use_structure_cache`` installs a cache as the process-local default so
deep call sites (MVGRL's diffusion operators) can reuse structures
without threading a cache argument through every signature.  Caching
never changes results — entries hold exactly what the uncached code would
recompute — so cache on/off is numerically invisible.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np
import scipy.sparse as sp

from ..obs import MetricRegistry

__all__ = ["LRU", "StructureCache", "structure_fingerprint",
           "use_structure_cache", "active_structure_cache"]

_FINGERPRINT_ATTR = "_structure_key"


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


def _entry_nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if sp.issparse(value):
        csr = value
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    return 0


class LRU:
    """Bounded, thread-safe, byte-accounted least-recently-used cache.

    Parameters
    ----------
    max_entries:
        Entry bound (``None``: the subclass's ``default_max_entries``);
        storing past it evicts the least-recently-used entry.
    metrics:
        Optional shared :class:`MetricRegistry`; a private one is created
        otherwise.  Counters ``<prefix>.hits`` / ``.misses`` /
        ``.evictions`` and gauges ``<prefix>.entries`` / ``.bytes``.

    Values are returned by reference, so treat them as immutable.
    """

    #: Metric-name prefix and default bound; each subclass sets both.
    prefix: str
    default_max_entries: int

    def __init__(self, max_entries: int | None = None,
                 metrics: MetricRegistry | None = None):
        if max_entries is None:
            max_entries = self.default_max_entries
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._hits = f"{self.prefix}.hits"
        self._misses = f"{self.prefix}.misses"
        self._evictions = f"{self.prefix}.evictions"
        self._entries_gauge = f"{self.prefix}.entries"
        self._bytes_gauge = f"{self.prefix}.bytes"
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()

    def lookup(self, key: Hashable):
        """The value stored under ``key`` (now most recent), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.metrics.counter(self._misses).inc()
                return None
            self._entries.move_to_end(key)
            self.metrics.counter(self._hits).inc()
            return value

    def store(self, key: Hashable, value) -> None:
        """Insert or replace ``key``, then evict down to the bound."""
        nbytes = _entry_nbytes(value)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= _entry_nbytes(previous)
            self._entries[key] = value
            self._bytes += nbytes
            while len(self._entries) > self.max_entries:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= _entry_nbytes(evicted)
                self.metrics.counter(self._evictions).inc()
            self._set_gauges()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._set_gauges()

    def _set_gauges(self) -> None:
        self.metrics.gauge(self._entries_gauge).set(len(self._entries))
        self.metrics.gauge(self._bytes_gauge).set(self._bytes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def nbytes(self) -> int:
        return self._bytes

    def stats(self) -> dict:
        """JSON-ready summary (``repro run`` journals it as a ``metrics``
        event)."""
        def count(name: str) -> int:
            return (self.metrics.counter(name).value
                    if name in self.metrics else 0)

        with self._lock:
            return {"entries": len(self._entries), "bytes": self._bytes,
                    "hits": count(self._hits), "misses": count(self._misses),
                    "evictions": count(self._evictions)}


class StructureCache(LRU):
    """:class:`LRU` over per-graph diffusion operators (prefix ``cache``)."""

    prefix = "cache"
    default_max_entries = 1024

    def get(self, graph, kind: str, params: tuple,
            build: Callable[[], object]):
        """Return the cached value for ``(kind, graph, params)`` or build it.

        ``build`` must be a pure function of the graph's structure; the
        cached object is returned by reference, so treat it as immutable.
        """
        key = (kind, structure_fingerprint(graph), *params)
        entry = self.lookup(key)
        if entry is None:
            entry = build()
            self.store(key, entry)
        return entry

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
