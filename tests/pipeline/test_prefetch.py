"""Prefetching loader: ordering, skip parity, and exception teardown."""

import pytest

from repro.graph import Graph, GraphBatch, GraphLoader
from repro.pipeline import PrefetchLoader, ViewGenerator
from repro.utils.seed import seeded_rng


def make_graphs(count, n=6):
    rng = seeded_rng(0)
    graphs = []
    for _ in range(count):
        edges = [[i, i + 1] for i in range(n - 1)]
        graphs.append(Graph(n, edges, rng.normal(size=(n, 3))))
    return graphs


class RecordingGenerator:
    """Stand-in generator that records submission order."""

    def __init__(self, fail_on=None):
        self.submitted = []
        self.handles = []
        self.fail_on = fail_on

    def submit(self, batch):
        self.submitted.append(batch)
        if self.fail_on is not None and len(self.submitted) == self.fail_on:
            raise RuntimeError("augmentation exploded")
        handle = _Handle(batch)
        self.handles.append(handle)
        return handle


class _Handle:
    def __init__(self, batch):
        self.batch = batch
        self.drained = False

    def result(self):
        self.drained = True
        return ("views", self.batch)


class TestPrefetchLoader:
    def test_yields_contrastive_batches_in_order(self):
        loader = GraphLoader(make_graphs(10), batch_size=3, shuffle=False)
        generator = RecordingGenerator()
        batches = list(PrefetchLoader(loader, generator))
        # The trailing 1-graph batch is dropped, exactly as the trainer
        # itself skips sub-contrastive batches.
        assert [b.num_graphs for b in batches] == [3, 3, 3]
        assert batches == generator.submitted

    def test_views_attached_before_yield(self):
        loader = GraphLoader(make_graphs(6), batch_size=3, shuffle=False)
        prefetch = PrefetchLoader(loader, RecordingGenerator())
        for batch in prefetch:
            views = batch.__dict__.pop("_precomputed_views")
            assert views[0] == "views"
            assert views[1] is batch

    def test_small_batches_not_submitted(self):
        # The serial trainer skips num_graphs < 2 batches without touching
        # the generator; prefetch must keep the same counter parity.
        loader = GraphLoader(make_graphs(7), batch_size=3, shuffle=False)
        generator = RecordingGenerator()
        batches = list(PrefetchLoader(loader, generator))
        assert [b.num_graphs for b in batches] == [3, 3]
        assert [b.num_graphs for b in generator.submitted] == [3, 3]

    def test_pending_work_drained_on_consumer_exception(self):
        loader = GraphLoader(make_graphs(12), batch_size=3, shuffle=False)
        generator = RecordingGenerator()
        prefetch = PrefetchLoader(loader, generator)
        with pytest.raises(RuntimeError, match="mid-epoch"):
            for i, batch in enumerate(prefetch):
                if i == 1:
                    raise RuntimeError("mid-epoch")
        # Two batches were yielded, a third was in flight; its handle must
        # have been drained so no worker result is left dangling.
        assert len(generator.submitted) == 3
        assert all(handle.drained for handle in generator.handles)

    def test_generator_exception_propagates(self):
        loader = GraphLoader(make_graphs(9), batch_size=3, shuffle=False)
        prefetch = PrefetchLoader(loader, RecordingGenerator(fail_on=2))
        with pytest.raises(RuntimeError, match="augmentation exploded"):
            list(prefetch)

    def test_reiterable(self):
        loader = GraphLoader(make_graphs(6), batch_size=3, shuffle=False)
        prefetch = PrefetchLoader(loader, RecordingGenerator())
        assert len(list(prefetch)) == len(list(prefetch)) == 2

    def test_len_excludes_skipped_tail(self):
        """Regression: ``len()`` used to report the raw loader length (3
        for 7 graphs at batch_size 3) even though the 1-graph tail is
        skipped at iteration time — progress totals overcounted."""
        loader = GraphLoader(make_graphs(7), batch_size=3, shuffle=False)
        prefetch = PrefetchLoader(loader, RecordingGenerator())
        assert len(prefetch) == 2

    @pytest.mark.parametrize("count,batch_size", [
        (10, 3), (7, 3), (8, 4), (6, 3), (5, 2), (2, 5), (1, 4),
    ])
    def test_len_matches_yielded_batches(self, count, batch_size):
        loader = GraphLoader(make_graphs(count), batch_size=batch_size,
                             shuffle=False)
        prefetch = PrefetchLoader(loader, RecordingGenerator())
        assert len(prefetch) == len(list(prefetch))

    def test_len_counts_contrastive_tail(self):
        # An 8-graph tail of 2 at batch_size 3 is big enough to train on.
        loader = GraphLoader(make_graphs(8), batch_size=3, shuffle=False)
        assert len(PrefetchLoader(loader, RecordingGenerator())) == 3

    def test_len_honors_drop_last(self):
        loader = GraphLoader(make_graphs(8), batch_size=3, shuffle=False,
                             drop_last=True)
        prefetch = PrefetchLoader(loader, RecordingGenerator())
        assert len(prefetch) == len(list(prefetch)) == 2

    def test_len_zero_when_batches_sub_contrastive(self):
        loader = GraphLoader(make_graphs(3), batch_size=1, shuffle=False)
        prefetch = PrefetchLoader(loader, RecordingGenerator())
        assert len(prefetch) == len(list(prefetch)) == 0

    def test_len_falls_back_for_opaque_loaders(self):
        class Opaque:
            def __len__(self):
                return 5

            def __iter__(self):
                return iter([])

        assert len(PrefetchLoader(Opaque(), RecordingGenerator())) == 5

    def test_real_pool_shutdown_mid_epoch(self):
        # End-to-end: a live worker pool with an in-flight batch must
        # survive a consumer exception and remain usable afterwards.
        from repro.methods.graphcl import default_augmentation

        loader = GraphLoader(make_graphs(12), batch_size=3, shuffle=False)
        generator = ViewGenerator(default_augmentation(), root=7, workers=2)
        try:
            with pytest.raises(RuntimeError, match="mid-epoch"):
                for i, batch in enumerate(PrefetchLoader(loader, generator)):
                    if i == 1:
                        raise RuntimeError("mid-epoch")
            pair = generator.generate(GraphBatch(make_graphs(4)))
            assert pair.view1.num_graphs == 4
        finally:
            generator.shutdown()
