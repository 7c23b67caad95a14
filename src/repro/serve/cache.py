"""Embedding cache keyed on a structure+feature content fingerprint.

:func:`repro.pipeline.structure_fingerprint` hashes only what
adjacency/diffusion operators depend on (``num_nodes`` + ``edges``).  An
*embedding* additionally depends on node features, so the serving cache
key extends that fingerprint with the feature matrix bytes:
:func:`content_fingerprint` chains the memoized structure digest with
``x``'s shape/dtype/contents under one blake2b.  Two requests carrying
byte-identical graphs therefore share a cache row, and because embeddings
are deterministic per graph (see :class:`repro.serve.FrozenEncoder`), a
cache hit returns exactly what the forward would have produced.

:class:`EmbeddingCache` is a thin subclass of the repo's one
:class:`repro.pipeline.LRU`, which is thread-safe (requests race on the
cache from the HTTP handler pool) and keeps the ``serve.cache.hits`` /
``serve.cache.misses`` / ``serve.cache.evictions`` counters and the
``serve.cache.entries`` / ``serve.cache.bytes`` gauges in the shared
:class:`repro.obs.MetricRegistry`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..pipeline import LRU, structure_fingerprint

__all__ = ["EmbeddingCache", "content_fingerprint"]


def content_fingerprint(graph) -> str:
    """Blake2b digest of a graph's structure *and* node features.

    Reuses (and memoizes through) the structure fingerprint, then folds
    in the feature matrix; the result is memoized on the instance so
    repeated lookups of the same object hash once.
    """
    key = getattr(graph, "_content_key", None)
    if key is None:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(structure_fingerprint(graph).encode())
        x = np.ascontiguousarray(graph.x)
        digest.update(str(x.dtype).encode())
        digest.update(np.asarray(x.shape, dtype=np.int64).tobytes())
        digest.update(x.tobytes())
        key = digest.hexdigest()
        graph._content_key = key
    return key


class EmbeddingCache(LRU):
    """:class:`LRU` of per-graph embedding rows (prefix ``serve.cache``)."""

    prefix = "serve.cache"
    default_max_entries = 4096

    def get(self, graph) -> np.ndarray | None:
        """Cached embedding row for ``graph``, or ``None`` on a miss."""
        return self.lookup(content_fingerprint(graph))

    def put(self, graph, embedding: np.ndarray) -> None:
        """Store one embedding row (idempotent for identical content)."""
        # Own an immutable copy: ascontiguousarray would alias the caller's
        # buffer, letting later mutation (or a mutating cache consumer)
        # silently poison every future hit.
        row = np.array(embedding, copy=True)
        row.flags.writeable = False
        self.store(content_fingerprint(graph), row)
