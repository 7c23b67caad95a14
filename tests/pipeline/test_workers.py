"""View-stream determinism: per-graph streams, the generator, the trainer."""

import numpy as np
import pytest

from repro.datasets import load_tu_dataset
from repro.methods import GraphCL
from repro.pipeline import (
    StructureCache,
    ViewGenerator,
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


def _views_in_process(counter):
    from repro.methods.graphcl import default_augmentation
    from repro.pipeline.pool import map_context

    gen = ViewGenerator(default_augmentation(), root=123)
    gen.counter = counter
    pair = gen.generate(map_context())
    return (batch_fingerprint(pair.view1), batch_fingerprint(pair.view2),
            gen.augmentation.last_choice)


class TestViewGenerator:
    def test_parallel_views_bit_identical(self, dataset):
        # Views depend only on (root, counter, graph): generating them in
        # forked processes gives the in-process bytes and choices.
        from repro.graph import GraphBatch
        from repro.pipeline.pool import fork_map

        batch = GraphBatch(dataset.graphs[:12])
        serial = fork_map(_views_in_process, range(3), workers=0,
                          context=batch)
        assert fork_map(_views_in_process, range(3), workers=2,
                        context=batch) == serial

    def test_counter_advances_on_submit(self):
        from repro.graph import GraphBatch
        from repro.methods.graphcl import default_augmentation

        g = load_tu_dataset("MUTAG", scale="tiny", seed=0).graphs
        gen = ViewGenerator(default_augmentation(), root=1)
        batch = GraphBatch(g[:4])
        first = gen.generate(batch)
        second = gen.generate(batch)
        assert batch_fingerprint(first.view1) != \
            batch_fingerprint(second.view1)

    def test_pickled_generator_continues_the_stream(self, dataset):
        # Module.clone()/deepcopy of a method pickles its generator; the
        # copy must resume at the same batch counter.
        import pickle

        from repro.graph import GraphBatch
        from repro.methods.graphcl import default_augmentation

        gen = ViewGenerator(default_augmentation(), root=9)
        batch = GraphBatch(dataset.graphs[:4])
        gen.generate(batch)
        clone = pickle.loads(pickle.dumps(gen))
        assert clone.counter == gen.counter == 1
        assert batch_fingerprint(clone.generate(batch).view1) == \
            batch_fingerprint(gen.generate(batch).view1)


class TestWorkerCountDeterminism:
    def run(self, dataset, method_cls, **kwargs):
        method = method_cls(dataset.num_features, 16, 2, rng=seeded_rng(0))
        history = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=2, **kwargs).fit()
        return history.losses

    def test_structure_cache_does_not_change_losses(self, dataset):
        baseline = self.run(dataset, GraphCL)
        assert self.run(dataset, GraphCL,
                        structure_cache=StructureCache()) == baseline

    def test_workers_zero_is_the_default_path(self, dataset):
        assert self.run(dataset, GraphCL, workers=0) == \
            self.run(dataset, GraphCL)

    @pytest.mark.parametrize("workers", [1, 2, -1])
    def test_pool_workers_rejected(self, dataset, workers):
        method = GraphCL(dataset.num_features, 16, 2, rng=seeded_rng(0))
        with pytest.raises(ValueError, match="workers must be 0"):
            Trainer(method, GraphSteps(dataset.graphs, batch_size=16),
                    epochs=1, workers=workers)


class TestForkMap:
    def test_negative_rejected(self):
        from repro.pipeline.pool import fork_map

        with pytest.raises(ValueError, match="workers must be >= 0"):
            fork_map(abs, [1, 2], workers=-1)
