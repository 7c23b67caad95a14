"""RunConfig: resolution, validation, JSON round-trip, hashing."""

import dataclasses
import json

import pytest

from repro.run import CONFIG_FILENAME, RunConfig


class TestResolve:
    def test_graph_defaults(self):
        config = RunConfig(method="SimGRACE").resolve()
        assert config.level == "graph"
        assert config.epochs == 20
        assert config.lr == pytest.approx(1e-3)
        assert config.hidden_dim == 16
        assert config.num_layers == 2
        assert config.batch_size == 32

    def test_node_defaults(self):
        config = RunConfig(method="GRACE", dataset="Cora").resolve()
        assert config.level == "node"
        assert config.epochs == 40
        assert config.lr == pytest.approx(3e-3)
        assert config.hidden_dim == 32
        assert config.out_dim == 16

    def test_explicit_values_survive_resolve(self):
        config = RunConfig(method="SimGRACE", epochs=7, lr=0.5,
                           hidden_dim=4).resolve()
        assert config.epochs == 7
        assert config.lr == 0.5
        assert config.hidden_dim == 4

    def test_ambiguous_method_needs_level(self):
        with pytest.raises(ValueError, match="levels"):
            RunConfig(method="MVGRL").resolve()
        assert RunConfig(method="MVGRL", level="node").resolve().out_dim == 16

    def test_unknown_method_fails_early(self):
        with pytest.raises(KeyError, match="known"):
            RunConfig(method="Nope").resolve()

    def test_resolve_is_idempotent(self):
        once = RunConfig(method="GraphCL").resolve()
        assert once.resolve() == once


class TestValidation:
    def test_weight_range(self):
        with pytest.raises(ValueError, match="weight"):
            RunConfig(weight=1.5)
        with pytest.raises(ValueError, match="weight"):
            RunConfig(weight=-0.1)

    def test_epochs_positive(self):
        with pytest.raises(ValueError, match="epochs"):
            RunConfig(epochs=0)

    def test_checkpoint_requires_run_dir(self):
        with pytest.raises(ValueError, match="run_dir"):
            RunConfig(checkpoint_every=2)
        RunConfig(checkpoint_every=2, run_dir="runs/x")  # fine

    def test_level_values(self):
        with pytest.raises(ValueError, match="level"):
            RunConfig(level="edge")

    @pytest.mark.parametrize("workers", [1, 2, -1])
    def test_pool_workers_rejected(self, workers):
        from repro.run import ConfigError

        with pytest.raises(ConfigError, match="workers must be 0"):
            RunConfig(workers=workers)
        with pytest.raises(ConfigError, match="workers must be 0"):
            RunConfig.from_dict({"method": "GraphCL", "workers": workers})

    def test_serial_workers_accepted(self):
        # Old config.json files carry ``workers``; None and 0 still load.
        assert RunConfig(workers=0).workers == 0
        assert RunConfig.from_dict({"workers": None}).workers is None


class TestSerialization:
    def test_dict_round_trip(self):
        config = RunConfig(method="GraphCL", weight=0.5, epochs=3,
                           run_dir="runs/x")
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_eval_workers_round_trip(self):
        config = RunConfig(method="GraphCL", eval_workers=2)
        assert RunConfig.from_dict(config.to_dict()).eval_workers == 2
        assert RunConfig(method="GraphCL").eval_workers is None

    def test_unknown_field_raises_with_field_list(self):
        with pytest.raises(ValueError, match="learning_rate"):
            RunConfig.from_dict({"method": "GraphCL", "learning_rate": 1.0})

    def test_file_round_trip(self, tmp_path):
        config = RunConfig(method="SimGRACE", weight=0.25, scale="tiny")
        path = config.to_file(tmp_path / CONFIG_FILENAME)
        assert RunConfig.from_file(path) == config
        # the file is plain sorted JSON, hand-editable
        data = json.loads(path.read_text())
        assert data["method"] == "SimGRACE"


class TestHashAndJournalFields:
    def test_hash_ignores_storage_locations(self):
        base = RunConfig(method="GraphCL", weight=0.5)
        moved = dataclasses.replace(base, run_dir="elsewhere",
                                    save="enc.npz")
        assert base.config_hash() == moved.config_hash()

    def test_hash_ignores_execution_topology(self):
        # cache/cadence produce bit-identical numbers, so runs of the
        # same experiment with and without them must share a fingerprint
        # (the CI determinism drills diff their journals, config_hash
        # included).
        base = RunConfig(method="GraphCL", weight=0.5)
        other = dataclasses.replace(base, cache=False, run_dir="runs/x",
                                    checkpoint_every=2, spectrum_every=5)
        assert base.config_hash() == other.config_hash()

    def test_hash_ignores_eval_workers(self):
        # The evaluation engine is bit-identical at every worker count,
        # so eval_workers is execution topology, not an experiment knob.
        base = RunConfig(method="GraphCL", weight=0.5)
        parallel = dataclasses.replace(base, eval_workers=2)
        assert base.config_hash() == parallel.config_hash()

    def test_hash_tracks_hyperparameters(self):
        base = RunConfig(method="GraphCL", weight=0.5)
        assert (base.config_hash()
                != dataclasses.replace(base, lr=0.01).config_hash())
        assert (base.config_hash()
                != dataclasses.replace(base, seed=1).config_hash())

    def test_hash_is_resolution_invariant(self):
        # explicit defaults and resolved defaults hash the same
        implicit = RunConfig(method="SimGRACE")
        explicit = RunConfig(method="SimGRACE", level="graph", epochs=20,
                             lr=1e-3, hidden_dim=16, num_layers=2,
                             batch_size=32)
        assert implicit.config_hash() == explicit.config_hash()

    def test_journal_fields(self):
        config = RunConfig(method="GraphCL", weight=0.5,
                           run_dir="runs/x", save="enc.npz")
        fields = config.journal_fields()
        assert fields["method"] == "GraphCL"
        assert fields["config_hash"] == config.config_hash()
        assert "run_dir" not in fields and "save" not in fields
        assert None not in fields.values()
