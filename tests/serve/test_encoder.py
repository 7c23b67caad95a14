"""FrozenEncoder: checkpoint loading, freezing, and batch invariance."""

import json
import shutil

import numpy as np
import pytest

from repro.datasets import load_tu_dataset
from repro.run import CONFIG_FILENAME, RunConfig, execute_run
from repro.serve import CheckpointMismatch, FrozenEncoder


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One checkpointed 2-epoch GraphCL run shared by the module."""
    path = tmp_path_factory.mktemp("serve-run") / "run"
    execute_run(RunConfig(method="GraphCL", dataset="MUTAG", scale="tiny",
                          weight=0.5, epochs=2, seed=0, hidden_dim=8,
                          checkpoint_every=2, run_dir=str(path)))
    return path


@pytest.fixture(scope="module")
def graphs():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0).graphs


class TestFromCheckpoint:
    def test_loads_and_freezes(self, run_dir):
        encoder = FrozenEncoder.from_checkpoint(run_dir)
        assert encoder.method.training is False
        assert all(not p.requires_grad
                   for p in encoder.method.parameters())
        assert encoder.dtype == "float32"
        assert encoder.config_hash

    def test_describe_identity(self, run_dir):
        info = FrozenEncoder.from_checkpoint(run_dir).describe()
        assert info["method"] == "GraphCL"
        assert info["dataset"] == "MUTAG"
        assert info["gradgcl_weight"] == 0.5
        assert info["embedding_dim"] > 0
        assert info["num_features"] > 0

    def test_refuses_config_hash_mismatch(self, run_dir, tmp_path):
        """Regression: an edited config must not load stale weights."""
        edited = tmp_path / "edited"
        shutil.copytree(run_dir, edited)
        config_path = edited / CONFIG_FILENAME
        fields = json.loads(config_path.read_text())
        fields["weight"] = 0.25
        config_path.write_text(json.dumps(fields))
        with pytest.raises(CheckpointMismatch) as excinfo:
            FrozenEncoder.from_checkpoint(edited)
        message = str(excinfo.value)
        # The error must be actionable: name both hashes and the way out.
        assert "config hash" in message
        assert "re-train" in message or "restore" in message

    def test_missing_config_is_actionable(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="config.json"):
            FrozenEncoder.from_checkpoint(tmp_path)

    def test_missing_checkpoint_is_actionable(self, run_dir, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(run_dir / CONFIG_FILENAME, bare / CONFIG_FILENAME)
        with pytest.raises(FileNotFoundError, match="checkpoint_every"):
            FrozenEncoder.from_checkpoint(bare)

    def test_legacy_checkpoint_without_num_features(self, run_dir,
                                                    tmp_path, graphs):
        """Pre-serving snapshots lack num_features meta; loading still
        works by recovering the width from the training dataset."""
        legacy = tmp_path / "legacy"
        shutil.copytree(run_dir, legacy)
        meta_path = legacy / "checkpoint.json"
        meta = json.loads(meta_path.read_text())
        del meta["num_features"]
        meta_path.write_text(json.dumps(meta))
        encoder = FrozenEncoder.from_checkpoint(legacy)
        assert encoder.num_features == graphs[0].num_features

    def test_dtype_override(self, run_dir, graphs):
        encoder = FrozenEncoder.from_checkpoint(run_dir, dtype="float64")
        out = encoder.embed(graphs[:3])
        assert out.dtype == np.float64


class TestEmbed:
    def test_batch_composition_is_invisible(self, run_dir, graphs):
        """The serving contract: same bytes alone or batched."""
        encoder = FrozenEncoder.from_checkpoint(run_dir)
        subset = graphs[:8]
        together = encoder.embed(subset)
        singles = np.concatenate([encoder.embed([g]) for g in subset])
        assert np.array_equal(together, singles)

    def test_chunked_equals_single_forward(self, run_dir, graphs):
        encoder = FrozenEncoder.from_checkpoint(run_dir)
        subset = graphs[:10]
        assert np.array_equal(encoder.embed(subset),
                              encoder.embed(subset, batch_size=3))

    def test_round_trip_matches_training_method(self, run_dir, graphs):
        """Two independent loads of the same checkpoint agree exactly."""
        first = FrozenEncoder.from_checkpoint(run_dir).embed(graphs)
        second = FrozenEncoder.from_checkpoint(run_dir).embed(graphs)
        assert np.array_equal(first, second)

    def test_validate_rejects_wrong_feature_width(self, run_dir, graphs):
        from repro.graph import Graph

        encoder = FrozenEncoder.from_checkpoint(run_dir)
        wrong = Graph(2, np.empty((0, 2), dtype=np.int64),
                      np.zeros((2, encoder.num_features + 1)))
        with pytest.raises(ValueError, match="node features"):
            encoder.validate([wrong])

    def test_empty_request_rejected(self, run_dir):
        encoder = FrozenEncoder.from_checkpoint(run_dir)
        with pytest.raises(ValueError, match="empty"):
            encoder.embed([])
