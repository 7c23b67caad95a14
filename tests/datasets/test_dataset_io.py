"""Dataset .npz caching round trips."""

import numpy as np

from repro.datasets import (
    load_graph_dataset,
    load_pretrain_dataset,
    load_tu_dataset,
    save_graph_dataset,
)


class TestDatasetIO:
    def test_roundtrip_preserves_everything(self, tmp_path):
        original = load_tu_dataset("MUTAG", scale="tiny", seed=1)
        path = tmp_path / "mutag.npz"
        save_graph_dataset(original, path)
        restored = load_graph_dataset(path)
        assert restored.name == original.name
        assert restored.category == original.category
        assert restored.num_classes == original.num_classes
        assert len(restored) == len(original)
        for a, b in zip(original.graphs, restored.graphs):
            assert a.y == b.y
            np.testing.assert_array_equal(a.edges, b.edges)
            np.testing.assert_array_equal(a.x, b.x)

    def test_roundtrip_unlabelled(self, tmp_path):
        original = load_pretrain_dataset("PPI-306K", scale="tiny", seed=0)
        path = tmp_path / "ppi.npz"
        save_graph_dataset(original, path)
        restored = load_graph_dataset(path)
        assert all(g.y is None for g in restored.graphs)

    def test_statistics_survive(self, tmp_path):
        original = load_tu_dataset("IMDB-B", scale="tiny", seed=0)
        path = tmp_path / "imdb.npz"
        save_graph_dataset(original, path)
        restored = load_graph_dataset(path)
        assert restored.statistics() == original.statistics()
