"""EmbeddingService: cache + batcher composition, metrics, bit-identity."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.methods import GraphCL
from repro.obs import MetricRegistry, RunJournal, events_of, read_journal
from repro.serve import EmbeddingService, FrozenEncoder
from repro.tensor import autocast

from .test_batcher import make_graphs


@pytest.fixture(scope="module")
def encoder():
    with autocast("float32"):
        method = GraphCL(4, hidden_dim=8, num_layers=2,
                         rng=np.random.default_rng(0))
    return FrozenEncoder(method, num_features=4)


@pytest.fixture(scope="module")
def graphs():
    return make_graphs(16, num_features=4, seed=3)


class TestBitIdentity:
    def test_concurrent_requests_match_offline(self, encoder, graphs):
        """The tentpole contract, in-process: served rows == offline rows
        at every concurrency level."""
        offline = np.concatenate([encoder.embed([g]) for g in graphs])
        with EmbeddingService(encoder) as service:
            with ThreadPoolExecutor(max_workers=6) as pool:
                rows = list(pool.map(
                    lambda g: service.embed_graphs([g])[0], graphs))
        assert np.array_equal(np.stack(rows), offline)

    def test_cache_hits_are_bit_identical(self, encoder, graphs):
        with EmbeddingService(encoder) as service:
            first = service.embed_graphs(graphs)
            second = service.embed_graphs(graphs)   # all cache hits
            snapshot = service.metrics_snapshot()
        assert np.array_equal(first, second)
        assert snapshot["serve.cache.hits"] == len(graphs)

    def test_mixed_hit_miss_request_order(self, encoder, graphs):
        offline = np.concatenate([encoder.embed([g]) for g in graphs[:4]])
        with EmbeddingService(encoder) as service:
            service.embed_graphs([graphs[1], graphs[3]])
            # 0 and 2 are misses, 1 and 3 hits — order must still hold.
            out = service.embed_graphs(graphs[:4])
        assert np.array_equal(out, offline)


class TestKnobs:
    def test_cache_can_be_disabled(self, encoder, graphs):
        with EmbeddingService(encoder, cache_entries=0) as service:
            assert service.cache is None
            service.embed_graphs(graphs[:2])
            service.embed_graphs(graphs[:2])
            snapshot = service.metrics_snapshot()
        assert "serve.cache.hits" not in snapshot
        assert snapshot["serve.batches"] == 2

    def test_empty_request_rejected(self, encoder):
        with EmbeddingService(encoder) as service:
            with pytest.raises(ValueError, match="no graphs"):
                service.embed_graphs([])

    def test_invalid_deadline_rejected_on_cache_hits(self, encoder, graphs):
        """The deadline is judged even when no graph reaches the batcher."""
        with EmbeddingService(encoder) as service:
            service.embed_graphs(graphs[:1])
            with pytest.raises(ValueError, match="deadline_ms"):
                service.embed_graphs(graphs[:1], deadline_ms=float("nan"))

    def test_health_payload(self, encoder):
        with EmbeddingService(encoder, max_batch_size=7) as service:
            health = service.health()
        assert health["status"] == "ok"
        assert health["max_batch_size"] == 7
        assert not [key for key in health if "wait" in key]  # no window
        assert health["num_features"] == 4


class TestMetrics:
    def test_snapshot_has_derived_rates(self, encoder, graphs):
        with EmbeddingService(encoder) as service:
            service.embed_graphs(graphs[:3])
            snapshot = service.metrics_snapshot()
        assert snapshot["serve.requests"] == 1
        assert snapshot["serve.graphs"] == 3
        assert snapshot["serve.requests_per_batch"] == 1.0
        assert snapshot["serve.batch_coalesce_rate"] == 0.0
        assert snapshot["serve.latency_seconds"]["count"] == 1
        assert snapshot["serve.uptime_seconds"] >= 0

    def test_log_metrics_journals_snapshot(self, encoder, graphs,
                                           tmp_path):
        with EmbeddingService(encoder) as service:
            service.embed_graphs(graphs[:2])
            with RunJournal(tmp_path) as journal:
                service.log_metrics(journal)
        (event,) = events_of(read_journal(tmp_path), "metrics")
        assert event["serve.requests"] == 1

    def test_shared_registry(self, encoder, graphs):
        metrics = MetricRegistry()
        with EmbeddingService(encoder, metrics=metrics) as service:
            service.embed_graphs(graphs[:1])
        assert metrics.snapshot()["serve.requests"] == 1
