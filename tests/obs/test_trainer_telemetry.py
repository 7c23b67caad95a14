"""Trainer-integration tests for the run-journal telemetry.

These assert the acceptance contract of the observability layer: a
GradGCL-wrapped training run journals config, per-epoch loss_f/loss_g and
grad-norm, the collapse spectrum, throughput, and engine counters — and
that all ``ts``-free fields are deterministic under a fixed seed, so the
journal doubles as a reproducibility artifact.
"""

import numpy as np

from repro.core import gradgcl
from repro.datasets import load_node_dataset, load_tu_dataset
from repro.methods import GRACE, GraphCL
from repro.obs import RunJournal, events_of, validate_journal
from repro.run import GraphSteps, NodeSteps, Trainer

# Wall-clock-dependent fields, stripped before determinism comparisons.
NONDETERMINISTIC_KEYS = {"ts", "seconds", "total_seconds", "graphs_per_sec",
                         "nodes_per_sec"}


def _train_graph(tmp_path, name, epochs=2):
    dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)
    method = gradgcl(GraphCL(dataset.num_features, 8, 2,
                             rng=np.random.default_rng(0)), 0.5)
    run_dir = tmp_path / name
    with RunJournal(run_dir) as journal:
        trainer = Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                             seed=0), epochs=epochs,
                          journal=journal)
        trainer.log_config(num_graphs=len(dataset.graphs), epochs=epochs,
                           batch_size=16, seed=0)
        history = trainer.fit()
    return history, validate_journal(run_dir)


class TestGraphTrainerJournal:
    def test_gradgcl_run_emits_full_schema(self, tmp_path):
        history, events = _train_graph(tmp_path, "run")
        (config,) = events_of(events, "config")
        assert config["method"] == "GraphCL"
        assert config["gradgcl_weight"] == 0.5
        assert config["dtype"] in ("float32", "float64")
        assert isinstance(config["fused_kernels"], bool)

        epochs = events_of(events, "epoch")
        assert len(epochs) == 2
        for record in epochs:
            assert record["loss_f"] > 0
            assert record["loss_g"] > 0
            assert record["grad_norm"] > 0
            assert record["graphs_per_sec"] > 0

        (spectrum,) = events_of(events, "spectrum")
        assert spectrum["effective_rank"] > 0
        assert len(spectrum["singular_values"]) == spectrum["embedding_dim"]

        (engine,) = events_of(events, "engine")
        assert engine["ops"] > 0
        assert engine["backward_sweeps"] > 0

        (trace,) = events_of(events, "trace")
        spans = trace["spans"]
        assert spans["epoch"]["count"] == 2
        assert spans["epoch/forward"]["count"] == spans["epoch/backward"]["count"]

        (end,) = events_of(events, "run_end")
        assert end["final_loss"] == history.final_loss
        assert end["epochs_run"] == 2

    def test_journal_fields_deterministic_under_fixed_seed(self, tmp_path):
        _, events_a = _train_graph(tmp_path, "a")
        _, events_b = _train_graph(tmp_path, "b")

        def strip(events):
            stripped = []
            for record in events:
                if record["event"] == "trace":
                    # Span timings are wall clock; keep only the shape.
                    stripped.append({
                        "event": "trace",
                        "paths": {p: s["count"]
                                  for p, s in record["spans"].items()}})
                    continue
                stripped.append({k: v for k, v in record.items()
                                 if k not in NONDETERMINISTIC_KEYS})
            return stripped

        assert strip(events_a) == strip(events_b)

    def test_telemetry_does_not_perturb_training(self, tmp_path):
        dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)

        def run(journal):
            method = gradgcl(GraphCL(dataset.num_features, 8, 2,
                                     rng=np.random.default_rng(0)), 0.5)
            return Trainer(method, GraphSteps(dataset.graphs, batch_size=16,
                                              seed=0), epochs=2,
                           journal=journal).fit()

        silent = run(None)
        with RunJournal(tmp_path / "observed") as journal:
            observed = run(journal)
        assert silent.losses == observed.losses
        assert silent.parts == observed.parts

    def test_grad_clip_norm_is_pre_clip(self, tmp_path):
        dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        method = gradgcl(GraphCL(dataset.num_features, 8, 2,
                                 rng=np.random.default_rng(0)), 0.5)
        with RunJournal(tmp_path / "clip") as journal:
            Trainer(method, GraphSteps(dataset.graphs, batch_size=16, seed=0),
                    epochs=1, grad_clip=1e-6, journal=journal).fit()
        (epoch,) = events_of(validate_journal(tmp_path / "clip"), "epoch")
        # Pre-clip norms are orders of magnitude above the tiny cap.
        assert epoch["grad_norm"] > 1e-3

    def test_spectrum_every_emits_intermediate_spectra(self, tmp_path):
        dataset = load_tu_dataset("MUTAG", scale="tiny", seed=0)
        method = GraphCL(dataset.num_features, 8, 2,
                         rng=np.random.default_rng(0))
        with RunJournal(tmp_path / "sp") as journal:
            Trainer(method, GraphSteps(dataset.graphs, batch_size=16, seed=0),
                    epochs=4, journal=journal, spectrum_every=2).fit()
        spectra = events_of(validate_journal(tmp_path / "sp"), "spectrum")
        assert [s["epoch"] for s in spectra] == [1, 3]


class TestNodeTrainerJournal:
    def test_node_run_emits_full_schema(self, tmp_path):
        dataset = load_node_dataset("Cora", scale="tiny", seed=0)
        method = gradgcl(GRACE(dataset.num_features, 16, 8,
                               rng=np.random.default_rng(0)), 0.2)
        with RunJournal(tmp_path / "node") as journal:
            trainer = Trainer(method, NodeSteps(dataset.graph), epochs=2,
                              lr=3e-3, journal=journal)
            trainer.log_config(num_nodes=dataset.graph.num_nodes, epochs=2,
                               lr=3e-3)
            trainer.fit()
        events = validate_journal(tmp_path / "node")
        (config,) = events_of(events, "config")
        assert config["kind"] == "node"
        assert config["num_nodes"] == dataset.graph.num_nodes
        epochs = events_of(events, "epoch")
        assert len(epochs) == 2
        for record in epochs:
            assert record["loss_f"] > 0
            assert record["loss_g"] > 0
            assert record["grad_norm"] > 0
            assert record["nodes_per_sec"] > 0
        assert events_of(events, "spectrum")
        assert events_of(events, "run_end")

    def test_history_untouched_without_journal(self):
        dataset = load_node_dataset("Cora", scale="tiny", seed=0)
        method = GRACE(dataset.num_features, 16, 8,
                       rng=np.random.default_rng(0))
        history = Trainer(method, NodeSteps(dataset.graph), epochs=2,
                          lr=3e-3).fit()
        assert len(history.losses) == 2
        assert history.grad_norms == []
