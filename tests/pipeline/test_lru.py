"""The one LRU contract, checked on both of its caches."""

import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import Graph
from repro.obs import MetricRegistry
from repro.pipeline import StructureCache, structure_fingerprint
from repro.serve import EmbeddingCache, content_fingerprint

STAT_KEYS = {"entries", "bytes", "hits", "misses", "evictions"}


def make_graph(i):
    """Graph ``i``: a path on ``i + 2`` nodes, so structure and content
    both differ between indices."""
    n = i + 2
    edges = [[j, j + 1] for j in range(n - 1)]
    return Graph(n, edges, np.full((n, 2), float(i)))


def make_row(i):
    return np.full(i % 5 + 1, float(i))


class StructureSide:
    """Drive a :class:`StructureCache` through its get-or-build."""

    cache_cls, prefix = StructureCache, "cache"

    @staticmethod
    def key(graph):
        return ("row", structure_fingerprint(graph))

    @staticmethod
    def get(cache, graph, i):
        return cache.get(graph, "row", (), lambda: make_row(i))

    @classmethod
    def put(cls, cache, graph, row):
        cache.store(cls.key(graph), row)


class EmbeddingSide:
    """Drive an :class:`EmbeddingCache` through ``get`` / ``put``."""

    cache_cls, prefix = EmbeddingCache, "serve.cache"

    @staticmethod
    def key(graph):
        return content_fingerprint(graph)

    @staticmethod
    def get(cache, graph, i):
        return cache.get(graph)

    @staticmethod
    def put(cache, graph, row):
        cache.put(graph, row)


@pytest.fixture(params=[StructureSide, EmbeddingSide],
                ids=["structure", "embedding"])
def side(request):
    return request.param


class TestLRUContract:
    def test_recency_and_eviction_order(self, side):
        cache = side.cache_cls(max_entries=2)
        cache.store("a", make_row(0))
        cache.store("b", make_row(1))
        assert cache.lookup("a") is not None   # b is now least recent
        cache.store("c", make_row(2))          # evicts b
        assert cache.lookup("b") is None
        cache.store("d", make_row(3))          # evicts a
        assert cache.lookup("a") is None
        assert cache.lookup("c") is not None and cache.lookup("d") is not None
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 2

    def test_nbytes_after_replace_evict_clear(self, side):
        cache = side.cache_cls(max_entries=2)
        cache.store("a", np.zeros(8))
        assert cache.nbytes == 64
        cache.store("a", np.zeros(16))         # replace, not add
        assert (len(cache), cache.nbytes) == (1, 128)
        csr = sp.csr_matrix(np.eye(3))
        cache.store("b", csr)
        csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        assert cache.nbytes == 128 + csr_bytes
        cache.store("c", np.zeros(4))          # evicts a
        assert cache.nbytes == csr_bytes + 32
        cache.clear()
        assert (len(cache), cache.nbytes) == (0, 0)
        assert cache.stats()["bytes"] == 0

    def test_metric_names_and_stats(self, side):
        metrics = MetricRegistry()
        cache = side.cache_cls(max_entries=1, metrics=metrics)
        cache.lookup("a")                      # miss
        cache.store("a", np.zeros(2))
        cache.lookup("a")                      # hit
        cache.store("b", np.zeros(3))          # evicts a
        p = side.prefix
        assert metrics.snapshot() == {
            f"{p}.bytes": 24.0, f"{p}.entries": 1.0, f"{p}.evictions": 1,
            f"{p}.hits": 1, f"{p}.misses": 1}
        assert cache.stats() == {"entries": 1, "bytes": 24, "hits": 1,
                                 "misses": 1, "evictions": 1}
        assert set(side.cache_cls().stats()) == STAT_KEYS

    def test_threads_keep_bound_and_bytes(self, side):
        cache = side.cache_cls(max_entries=8)
        graphs = [make_graph(i) for i in range(24)]
        barrier = threading.Barrier(8)
        gets = [0] * 8

        def worker(t):
            rng = np.random.default_rng(t)
            barrier.wait()
            for _ in range(1000):
                i = int(rng.integers(len(graphs)))
                if rng.random() < 0.5:
                    side.get(cache, graphs[i], i)
                    gets[t] += 1
                else:
                    side.put(cache, graphs[i], make_row(i))

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)    # switch threads mid-update often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == sum(gets)
        assert len(cache) <= 8
        stored = [cache.lookup(side.key(g)) for g in graphs]
        stored = [row for row in stored if row is not None]
        assert len(stored) == len(cache)
        assert cache.nbytes == sum(row.nbytes for row in stored)


def test_embedding_cache_defines_its_own_get_and_put():
    # Span recording wraps ``owner.__dict__[attr]``; inherited methods
    # would not be found there.
    assert "get" in EmbeddingCache.__dict__
    assert "put" in EmbeddingCache.__dict__
