"""EmbeddingCache and the structure+feature content fingerprint."""

import numpy as np
import pytest

from repro.graph import Graph
from repro.obs import MetricRegistry
from repro.serve import EmbeddingCache, content_fingerprint


def graph_with(x, edges=None, num_nodes=None):
    x = np.asarray(x, dtype=np.float64)
    edges = (np.empty((0, 2), dtype=np.int64) if edges is None
             else np.asarray(edges, dtype=np.int64))
    return Graph(num_nodes or len(x), edges, x)


class TestContentFingerprint:
    def test_identical_graphs_share_a_key(self):
        a = graph_with([[1.0, 2.0], [3.0, 4.0]], edges=[[0, 1]])
        b = graph_with([[1.0, 2.0], [3.0, 4.0]], edges=[[0, 1]])
        assert content_fingerprint(a) == content_fingerprint(b)

    def test_feature_change_changes_key(self):
        a = graph_with([[1.0, 2.0], [3.0, 4.0]])
        b = graph_with([[1.0, 2.0], [3.0, 5.0]])
        assert content_fingerprint(a) != content_fingerprint(b)

    def test_structure_change_changes_key(self):
        x = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        a = graph_with(x, edges=[[0, 1]])
        b = graph_with(x, edges=[[0, 2]])
        assert content_fingerprint(a) != content_fingerprint(b)

    def test_memoized_on_instance(self):
        graph = graph_with([[1.0]])
        assert content_fingerprint(graph) is content_fingerprint(graph)
        assert graph._content_key == content_fingerprint(graph)


class TestEmbeddingCache:
    def test_round_trip_exact(self):
        cache = EmbeddingCache()
        graph = graph_with([[1.0, 2.0]])
        row = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        cache.put(graph, row)
        assert np.array_equal(cache.get(graph), row)

    def test_miss_returns_none(self):
        cache = EmbeddingCache()
        assert cache.get(graph_with([[9.0]])) is None

    def test_lru_eviction_order(self):
        cache = EmbeddingCache(max_entries=2)
        graphs = [graph_with([[float(i)]]) for i in range(3)]
        cache.put(graphs[0], np.zeros(2))
        cache.put(graphs[1], np.ones(2))
        cache.get(graphs[0])          # refresh 0; 1 is now oldest
        cache.put(graphs[2], np.full(2, 2.0))
        assert cache.get(graphs[0]) is not None
        assert cache.get(graphs[1]) is None
        assert cache.get(graphs[2]) is not None
        assert len(cache) == 2

    def test_metrics_flow(self):
        metrics = MetricRegistry()
        cache = EmbeddingCache(max_entries=1, metrics=metrics)
        graphs = [graph_with([[float(i)]]) for i in range(2)]
        cache.get(graphs[0])                      # miss
        cache.put(graphs[0], np.zeros(2))
        cache.get(graphs[0])                      # hit
        cache.put(graphs[1], np.ones(2))          # evicts graphs[0]
        snapshot = metrics.snapshot()
        assert snapshot["serve.cache.hits"] == 1
        assert snapshot["serve.cache.misses"] == 1
        assert snapshot["serve.cache.evictions"] == 1
        assert snapshot["serve.cache.entries"] == 1

    def test_env_override(self, monkeypatch):
        # The bound is set by ``max_entries`` (``--cache-entries``) only.
        monkeypatch.setenv("REPRO_EMBED_CACHE", "3")
        assert EmbeddingCache().max_entries == 4096
        assert EmbeddingCache(max_entries=3).max_entries == 3

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            EmbeddingCache(max_entries=0)

    def test_clear(self):
        cache = EmbeddingCache()
        graph = graph_with([[1.0]])
        cache.put(graph, np.zeros(2))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(graph) is None

    def test_cached_rows_are_immutable_copies(self):
        """Caller-side mutation must not poison the cache, either way."""
        cache = EmbeddingCache()
        graph = graph_with([[1.0]])
        row = np.array([1.0, 2.0])
        cache.put(graph, row)
        row[:] = -1                      # mutate the original after put
        first = cache.get(graph)
        assert np.array_equal(first, [1.0, 2.0])
        with pytest.raises(ValueError):  # returned rows are read-only
            first[:] = -2
        assert np.array_equal(cache.get(graph), [1.0, 2.0])
