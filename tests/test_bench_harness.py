"""The benchmark harness itself: scaling config and report plumbing."""

import pytest

import benchmarks.common as common


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    yield


class TestConfig:
    def test_default_is_bench(self):
        cfg = common.config()
        assert cfg.dataset_scale == "tiny"
        assert cfg.seeds == (0,)
        assert not common.full_grid()

    def test_small_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        cfg = common.config()
        assert cfg.dataset_scale == "small"
        assert len(cfg.seeds) == 3
        assert common.full_grid()

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError):
            common.config()


class TestReport:
    def test_writes_file_and_registers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        before = len(common.REPORTS)
        common.report("unit-test", "A title", ["H1", "H2"],
                      [["a", 1], ["b", 2]], note="note line")
        assert len(common.REPORTS) == before + 1
        text = (tmp_path / "unit-test.txt").read_text()
        assert "A title" in text
        assert "note line" in text
        assert "a" in text and "b" in text
        common.REPORTS.pop()


class TestBuilders:
    def test_graph_variant_wraps_when_weighted(self):
        from repro.core import GradGCLObjective
        from repro.datasets import load_tu_dataset
        from repro.methods import GraphCL

        ds = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        base = common.build_graph_variant(GraphCL, ds, 0.0, seed=0)
        assert not isinstance(base.objective, GradGCLObjective)
        wrapped = common.build_graph_variant(GraphCL, ds, 0.5, seed=0)
        assert isinstance(wrapped.objective, GradGCLObjective)
        assert wrapped.objective.weight == 0.5

    def test_node_variant_handles_mvgrl(self):
        from repro.datasets import load_node_dataset
        from repro.methods import MVGRLNode

        ds = load_node_dataset("Cora", scale="tiny", seed=0)
        method = common.build_node_variant(MVGRLNode, ds, 0.5, seed=0)
        from repro.core import GradGCLObjective

        assert isinstance(method.objective, GradGCLObjective)
