"""Unified Trainer: callback protocol, step strategies, one training path."""

import numpy as np
import pytest

from repro.datasets import load_node_dataset, load_tu_dataset
from repro.methods import GRACE, GraphCL
from repro.run import Callback, EarlyStopping, GraphSteps, NodeSteps, \
    ProbeCallback, Trainer


@pytest.fixture(scope="module")
def graph_dataset():
    return load_tu_dataset("MUTAG", scale="tiny", seed=0)


@pytest.fixture(scope="module")
def node_dataset():
    return load_node_dataset("Cora", scale="tiny", seed=0)


def _graph_method(dataset, seed=0):
    return GraphCL(dataset.num_features, 8, 2,
                   rng=np.random.default_rng(seed))


class RecordingCallback(Callback):
    def __init__(self):
        self.calls = []

    def on_train_begin(self, trainer):
        self.calls.append("begin")

    def on_epoch_end(self, trainer, epoch):
        self.calls.append(("epoch", epoch))

    def on_train_end(self, trainer):
        self.calls.append("end")


class TestCallbackProtocol:
    def test_hooks_fire_in_order(self, graph_dataset):
        recorder = RecordingCallback()
        method = _graph_method(graph_dataset)
        trainer = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=16, seed=0),
                          epochs=2, callbacks=[recorder])
        trainer.fit()
        assert recorder.calls == ["begin", ("epoch", 0), ("epoch", 1),
                                  "end"]

    def test_request_stop_ends_training(self, graph_dataset):
        class StopAtFirst(Callback):
            def on_epoch_end(self, trainer, epoch):
                trainer.request_stop()

        method = _graph_method(graph_dataset)
        trainer = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=16, seed=0),
                          epochs=10, callbacks=[StopAtFirst()])
        history = trainer.fit()
        assert len(history.losses) == 1
        assert trainer.epochs_run == 1

    def test_find_callback(self, graph_dataset):
        method = _graph_method(graph_dataset)
        trainer = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=16, seed=0),
                          epochs=1, patience=3,
                          probe=lambda m: {"x": 1.0})
        assert isinstance(trainer.find_callback(EarlyStopping),
                          EarlyStopping)
        assert isinstance(trainer.find_callback(ProbeCallback),
                          ProbeCallback)
        assert trainer.find_callback(RecordingCallback) is None

    def test_probe_records_each_epoch(self, graph_dataset):
        method = _graph_method(graph_dataset)
        trainer = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=16, seed=0),
                          epochs=2, probe=lambda m: {"n": m.num_parameters()})
        history = trainer.fit()
        assert len(history.probes) == 2

    def test_probe_every_thins_cadence(self, graph_dataset):
        # every=2 over 5 epochs: after epochs 2 and 4, plus the final
        # epoch regardless of alignment.
        method = _graph_method(graph_dataset)
        trainer = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=16, seed=0),
                          epochs=5,
                          callbacks=[ProbeCallback(lambda m: {"n": 1},
                                                   every=2)])
        history = trainer.fit()
        assert len(history.probes) == 3

    def test_probe_fires_on_requested_stop(self, graph_dataset):
        class StopNow(Callback):
            def on_epoch_end(self, trainer, epoch):
                trainer.request_stop()

        method = _graph_method(graph_dataset)
        trainer = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=16, seed=0),
                          epochs=10,
                          callbacks=[StopNow(),
                                     ProbeCallback(lambda m: {"n": 1},
                                                   every=100)])
        trainer.fit()
        # An off-cadence early stop still probes the run's final state.
        assert len(trainer.history.probes) == 1

    def test_probe_every_validation(self):
        with pytest.raises(ValueError, match="every"):
            ProbeCallback(lambda m: {}, every=0)

    def test_early_stopping_validation(self):
        with pytest.raises(ValueError, match="patience"):
            EarlyStopping(patience=0)

    def test_epochs_validation(self, graph_dataset):
        method = _graph_method(graph_dataset)
        with pytest.raises(ValueError, match="epochs"):
            Trainer(method, GraphSteps(graph_dataset.graphs), epochs=0)


class TestGraphStrategy:
    """Every graph-level epoch holds at least one trainable batch."""

    def test_batch_size_below_two_rejected(self, graph_dataset):
        with pytest.raises(ValueError, match="batch_size must be >= 2"):
            GraphSteps(graph_dataset.graphs, batch_size=1)

    def test_single_graph_rejected(self, graph_dataset):
        with pytest.raises(ValueError, match="needs >= 2 graphs"):
            GraphSteps(graph_dataset.graphs[:1], batch_size=4)

    def test_trailing_single_graph_batch_skipped(self, graph_dataset):
        # 3 graphs in batches of 2: the trailing 1-graph batch is skipped,
        # the epoch still trains on the first batch.
        method = _graph_method(graph_dataset)
        history = Trainer(method, GraphSteps(graph_dataset.graphs[:3],
                                             batch_size=2, seed=0),
                          epochs=2).fit()
        assert len(history.losses) == 2
        assert all(np.isfinite(history.losses))


class TestOneTrainingPath:
    """``execute_run`` is a RunConfig around the same Trainer callers build
    by hand: identical configurations give identical losses."""

    def test_graph_run_matches_hand_built_trainer(self, graph_dataset):
        from repro.core import gradgcl
        from repro.run import RunConfig, execute_run

        config = RunConfig(method="GraphCL", dataset="MUTAG", scale="tiny",
                           weight=0.5, epochs=2, hidden_dim=8)
        result = execute_run(config)
        method = gradgcl(_graph_method(graph_dataset), 0.5)
        history = Trainer(method, GraphSteps(graph_dataset.graphs,
                                             batch_size=32, seed=0),
                          epochs=2, lr=1e-3).fit()
        assert result.history.losses == history.losses
        assert result.history.parts == history.parts

    def test_node_run_matches_hand_built_trainer(self, node_dataset):
        from repro.core import gradgcl
        from repro.run import RunConfig, execute_run

        config = RunConfig(method="GRACE", dataset="Cora", scale="tiny",
                           weight=0.5, epochs=2, hidden_dim=16, out_dim=8)
        result = execute_run(config)
        method = gradgcl(GRACE(node_dataset.num_features, 16, 8,
                               rng=np.random.default_rng(0)), 0.5)
        history = Trainer(method, NodeSteps(node_dataset.graph), epochs=2,
                          lr=3e-3).fit()
        assert result.history.losses == history.losses
        assert result.history.parts == history.parts


class TestNodeStrategy:
    def test_node_early_stopping(self, node_dataset):
        # Regression: the old node loop had no early stopping at all.
        # A huge min_delta means "never improves" after the first epoch
        # sets the best loss -> stop after 1 + patience epochs.
        method = GRACE(node_dataset.num_features, 16, 8,
                       rng=np.random.default_rng(0))
        history = Trainer(method, NodeSteps(node_dataset.graph), epochs=30,
                          patience=2, min_delta=100.0).fit()
        assert len(history.losses) == 3

    def test_node_runs_full_without_patience(self, node_dataset):
        method = GRACE(node_dataset.num_features, 16, 8,
                       rng=np.random.default_rng(0))
        history = Trainer(method, NodeSteps(node_dataset.graph),
                          epochs=3).fit()
        assert len(history.losses) == 3

    def test_node_parts_keys_sorted(self, node_dataset):
        from repro.core import gradgcl

        method = gradgcl(GRACE(node_dataset.num_features, 16, 8,
                               rng=np.random.default_rng(0)), 0.3)
        history = Trainer(method, NodeSteps(node_dataset.graph),
                          epochs=1).fit()
        assert list(history.parts[0]) == sorted(history.parts[0])
