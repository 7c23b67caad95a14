"""Worker-pool determinism: identical views and losses at every count."""

import numpy as np
import pytest

from repro.datasets import load_tu_dataset
from repro.methods import GraphCL, JOAO
from repro.pipeline import (
    ViewGenerator,
    resolve_workers,
    spawn_root,
    stream_from_key,
    view_stream_keys,
)
from repro.run import GraphSteps, Trainer
from repro.utils.seed import seeded_rng


@pytest.fixture(scope="module")
def dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


def batch_fingerprint(batch):
    return [(g.num_nodes, g.edges.tobytes(), g.x.tobytes())
            for g in batch.graphs]


class TestSeeding:
    def test_stream_keys_shape_and_determinism(self):
        keys = view_stream_keys(7, 3, 1, 5)
        assert keys.shape == (5, 2)
        np.testing.assert_array_equal(keys, view_stream_keys(7, 3, 1, 5))

    def test_streams_independent_across_views(self):
        k1 = view_stream_keys(7, 3, 1, 4)
        k2 = view_stream_keys(7, 3, 2, 4)
        assert not np.array_equal(k1, k2)

    def test_stream_from_key_reproducible(self):
        key = view_stream_keys(1, 2, 1, 1)[0]
        a = stream_from_key(key).random(4)
        b = stream_from_key(key).random(4)
        np.testing.assert_array_equal(a, b)

    def test_spawn_root_consumes_one_draw(self):
        rng1, rng2 = seeded_rng(5), seeded_rng(5)
        spawn_root(rng1)
        rng2.integers(0, 2 ** 63)
        assert rng1.integers(0, 100) == rng2.integers(0, 100)


class TestResolveWorkers:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert resolve_workers(None) == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert resolve_workers(None) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestViewGenerator:
    def test_parallel_views_bit_identical(self, dataset):
        from repro.graph import GraphBatch
        from repro.methods.graphcl import default_augmentation

        batch = GraphBatch(dataset.graphs[:12])
        pairs = []
        for workers in (0, 1, 4):
            gen = ViewGenerator(default_augmentation(), root=123,
                                workers=workers, chunk_size=3)
            try:
                pairs.append(gen.generate(batch))
            finally:
                gen.shutdown()
        for pair in pairs[1:]:
            assert batch_fingerprint(pair.view1) == \
                batch_fingerprint(pairs[0].view1)
            assert batch_fingerprint(pair.view2) == \
                batch_fingerprint(pairs[0].view2)
            assert (pair.choice1, pair.choice2) == \
                (pairs[0].choice1, pairs[0].choice2)

    def test_counter_advances_on_submit(self):
        from repro.graph import GraphBatch
        from repro.methods.graphcl import default_augmentation

        g = load_tu_dataset("MUTAG", scale="tiny", seed=0).graphs
        gen = ViewGenerator(default_augmentation(), root=1, workers=0)
        batch = GraphBatch(g[:4])
        first = gen.generate(batch)
        second = gen.generate(batch)
        assert batch_fingerprint(first.view1) != \
            batch_fingerprint(second.view1)

    def test_pickling_drops_pool(self, dataset):
        import pickle

        from repro.graph import GraphBatch
        from repro.methods.graphcl import default_augmentation

        gen = ViewGenerator(default_augmentation(), root=9, workers=2)
        try:
            gen.generate(GraphBatch(dataset.graphs[:4]))
            clone = pickle.loads(pickle.dumps(gen))
            assert clone._pool is None
            assert clone.workers == 2
            assert clone.counter == gen.counter
        finally:
            gen.shutdown()


class TestWorkerCountDeterminism:
    def run(self, dataset, method_cls, **kwargs):
        method = method_cls(dataset.num_features, 16, 2, rng=seeded_rng(0))
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=2, **kwargs).fit()
        return history.losses

    def test_epoch_losses_identical_across_workers(self, dataset):
        baseline = self.run(dataset, GraphCL, workers=0)
        for workers in (1, 4):
            assert self.run(dataset, GraphCL, workers=workers) == baseline

    def test_prefetch_does_not_change_losses(self, dataset):
        baseline = self.run(dataset, GraphCL, workers=0)
        assert self.run(dataset, GraphCL, workers=0,
                        prefetch=True) == baseline
        assert self.run(dataset, GraphCL, workers=2,
                        prefetch=True) == baseline

    def test_structure_cache_does_not_change_losses(self, dataset):
        baseline = self.run(dataset, GraphCL, workers=0)
        assert self.run(dataset, GraphCL, workers=0,
                        structure_cache=True) == baseline

    def test_joao_choice_feedback_survives_workers(self, dataset):
        # JOAO reads RandomChoice.last_choice after each loss and reweights
        # its augmentation distribution — the choices must round-trip
        # through the worker pool identically.
        baseline = self.run(dataset, JOAO, workers=0)
        assert self.run(dataset, JOAO, workers=2) == baseline
        assert self.run(dataset, JOAO, workers=2, prefetch=True) == baseline
