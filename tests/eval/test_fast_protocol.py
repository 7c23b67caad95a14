"""Fast evaluation engine: bit-exact equivalence with the reference path.

The contract under test is the tentpole guarantee: for every classifier,
fold/repeat shape, and worker count, ``engine="fast"`` returns the exact
``(mean, std)`` floats of the seed reference protocol.  Plain ``==`` on
the tuples, never ``approx``: every lockstep fold computes the reference
objective bit for bit, so equality holds bitwise.
"""

import numpy as np
import pytest

import repro.eval.engine as engine_mod
from repro.eval import (
    evaluate_graph_embeddings,
    evaluate_node_embeddings,
    fast_eval_enabled,
    last_eval_stats,
    lockstep_available,
    resolve_eval_workers,
)


@pytest.fixture(scope="module")
def data():
    """Three moderately separated clusters with non-dense label values."""
    rng = np.random.default_rng(0)
    centers = rng.normal(size=(3, 6)) * 3.0
    x = np.concatenate([rng.normal(loc=c, size=(30, 6)) for c in centers])
    y = np.repeat(np.array([2, 5, 9]), 30)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def both(x, y, **kwargs):
    ref = evaluate_graph_embeddings(x, y, engine="reference", **kwargs)
    fast = evaluate_graph_embeddings(x, y, engine="fast", **kwargs)
    return ref, fast


class TestGraphEquivalence:
    @pytest.mark.parametrize("classifier", ("svm", "logreg", "sgd"))
    @pytest.mark.parametrize("workers", (0, 2))
    def test_bit_identical_every_classifier_and_worker_count(
            self, data, classifier, workers):
        x, y = data
        ref = evaluate_graph_embeddings(x, y, classifier=classifier,
                                        folds=4, repeats=2,
                                        engine="reference")
        fast = evaluate_graph_embeddings(x, y, classifier=classifier,
                                         folds=4, repeats=2, engine="fast",
                                         eval_workers=workers)
        assert fast == ref

    @pytest.mark.parametrize("folds,repeats", ((3, 3), (5, 1), (10, 2)))
    def test_bit_identical_across_fold_repeat_shapes(self, data, folds,
                                                     repeats):
        x, y = data
        ref, fast = both(x, y, folds=folds, repeats=repeats)
        assert fast == ref

    def test_default_engine_is_fast(self, data, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_EVAL", raising=False)
        x, y = data
        assert fast_eval_enabled()
        result = evaluate_graph_embeddings(x, y, folds=4, repeats=1)
        assert last_eval_stats().solver == "lockstep"
        assert result == evaluate_graph_embeddings(x, y, folds=4,
                                                   repeats=1,
                                                   engine="reference")

    def test_degenerate_folds_skip_identically(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(12, 4))
        y = np.zeros(12, dtype=int)
        y[0] = 1
        with pytest.warns(RuntimeWarning, match="degenerate"):
            ref = evaluate_graph_embeddings(x, y, folds=6, repeats=2,
                                            engine="reference")
        ref_skipped = last_eval_stats().folds_skipped
        with pytest.warns(RuntimeWarning, match="degenerate"):
            fast = evaluate_graph_embeddings(x, y, folds=6, repeats=2,
                                             engine="fast")
        assert fast == ref
        assert last_eval_stats().folds_skipped == ref_skipped > 0

    def test_without_lockstep_driver(self, data, monkeypatch):
        # Driver unavailable: SVM and logreg folds drop to reference cells.
        monkeypatch.setattr(engine_mod, "_lockstep_ok", False)
        x, y = data
        for classifier in ("svm", "logreg"):
            ref = evaluate_graph_embeddings(x, y, classifier=classifier,
                                            folds=4, repeats=1,
                                            engine="reference")
            fast = evaluate_graph_embeddings(x, y, classifier=classifier,
                                             folds=4, repeats=1,
                                             engine="fast")
            assert fast == ref
            assert last_eval_stats().solver == "reference"

    def test_engine_switch_validation(self, data):
        x, y = data
        with pytest.raises(ValueError, match="engine"):
            evaluate_graph_embeddings(x, y, engine="bogus")

    def test_env_switch_disables_fast_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_EVAL", "0")
        assert not fast_eval_enabled()
        monkeypatch.setenv("REPRO_FAST_EVAL", "off")
        assert not fast_eval_enabled()
        monkeypatch.delenv("REPRO_FAST_EVAL")
        assert fast_eval_enabled()


class TestTightMargins:
    """Folds whose test scores sit near a tie: only an exact (f, g) agrees."""

    @pytest.fixture(scope="class")
    def hard(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((360, 32)).astype(np.float32)
        y = (x[:, :4].sum(1) + 1.5 * rng.standard_normal(360) > 0).astype(int)
        return x, y

    @pytest.mark.parametrize("classifier", ("svm", "logreg"))
    def test_single_repeat_seeds_identical(self, hard, classifier):
        x, y = hard
        for seed in range(20):
            ref = evaluate_graph_embeddings(x, y, classifier=classifier,
                                            repeats=1, seed=seed,
                                            engine="reference")
            fast = evaluate_graph_embeddings(x, y, classifier=classifier,
                                             repeats=1, seed=seed,
                                             engine="fast", eval_workers=0)
            assert fast == ref, seed
            assert last_eval_stats().folds_fallback == 0

    @pytest.mark.slow
    @pytest.mark.parametrize("classifier", ("svm", "logreg"))
    def test_trained_checkpoint_seeds_identical(self, classifier, tmp_path):
        # The benchmark's checkpoint recipe: GraphCL + GradGCL(a=0.5) on
        # NCI1 small, two epochs, seed 0.
        from repro.cli import main
        from repro.datasets import load_tu_dataset
        from repro.serve import FrozenEncoder

        run_dir = tmp_path / "ckpt"
        assert main(["run", "--method", "GraphCL", "--dataset", "NCI1",
                     "--scale", "small", "--weight", "0.5", "--epochs", "2",
                     "--seed", "0", "--eval-workers", "0",
                     "--run-dir", str(run_dir),
                     "--checkpoint-every", "2"]) == 0
        x = FrozenEncoder.from_checkpoint(run_dir).embed(
            load_tu_dataset("NCI1", scale="small", seed=0).graphs)
        y = load_tu_dataset("NCI1", scale="small", seed=0).labels()
        for seed in range(30):
            ref = evaluate_graph_embeddings(x, y, classifier=classifier,
                                            repeats=1, seed=seed,
                                            engine="reference")
            fast = evaluate_graph_embeddings(x, y, classifier=classifier,
                                             repeats=1, seed=seed,
                                             engine="fast", eval_workers=0)
            assert fast == ref, seed


class TestNodeEquivalence:
    @pytest.fixture(scope="class")
    def node_data(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(2, 8)) * 4.0
        x = np.concatenate([rng.normal(loc=c, size=(50, 8))
                            for c in centers])
        y = np.repeat(np.arange(2), 50)
        train = np.zeros(100, dtype=bool)
        train[rng.choice(100, 30, replace=False)] = True
        return x, y, train, ~train

    def test_bit_identical(self, node_data):
        x, y, train, test = node_data
        ref = evaluate_node_embeddings(x, y, train, test,
                                       engine="reference")
        fast = evaluate_node_embeddings(x, y, train, test, engine="fast")
        assert fast == ref
        assert last_eval_stats().solver == "lockstep"

    def test_bit_identical_more_repeats(self, node_data):
        x, y, train, test = node_data
        ref = evaluate_node_embeddings(x, y, train, test, repeats=5,
                                       engine="reference")
        fast = evaluate_node_embeddings(x, y, train, test, repeats=5,
                                        engine="fast")
        assert fast == ref

    def test_subset_fallback_gives_two_sizes(self, monkeypatch):
        # Ten training nodes, one of class 1 (index 9): a 90% subset that
        # drops it falls back to all ten, so the lockstep batches two
        # subset sizes.
        sizes = []
        solve = engine_mod._lockstep_cells

        def recording(classifier, x, labels, classes, cells, *args):
            sizes.extend(len(train_idx) for train_idx, _ in cells)
            return solve(classifier, x, labels, classes, cells, *args)

        monkeypatch.setattr(engine_mod, "_lockstep_cells", recording)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 5))
        y = np.zeros(40, dtype=int)
        y[9] = 1
        y[20:] = 1
        train = np.zeros(40, dtype=bool)
        train[:10] = True
        ref = evaluate_node_embeddings(x, y, train, ~train, repeats=3,
                                       engine="reference")
        fast = evaluate_node_embeddings(x, y, train, ~train, repeats=3,
                                        engine="fast")
        assert fast == ref
        stats = last_eval_stats()
        assert stats.solver == "lockstep"
        assert stats.folds_batched == 3
        assert sorted(set(sizes)) == [9, 10]


class TestEngineKnobs:
    def test_lockstep_driver_available_here(self):
        assert lockstep_available() is True

    def test_probe_caches_failure_without_driver(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_lockstep_ok", None)
        monkeypatch.setattr(engine_mod, "_lbfgsb_core", None)
        assert lockstep_available() is False
        assert engine_mod._lockstep_ok is False

    def test_resolve_eval_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_WORKERS", raising=False)
        assert resolve_eval_workers(None) == 0
        assert resolve_eval_workers(3) == 3
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "2")
        assert resolve_eval_workers(None) == 2
        assert resolve_eval_workers(0) == 0  # explicit beats env
        with pytest.raises(ValueError, match="workers"):
            resolve_eval_workers(-1)

    def test_stats_journal_fields(self, data):
        x, y = data
        evaluate_graph_embeddings(x, y, folds=4, repeats=2, engine="fast",
                                  eval_workers=0)
        stats = last_eval_stats()
        fields = stats.to_fields()
        assert fields["eval_solver"] == "lockstep"
        assert fields["eval_folds"] == 8
        assert (fields["eval_folds_batched"] + fields["eval_folds_fallback"]
                + fields["eval_folds_skipped"]) == 8
        assert fields["eval_fit_iterations"] > 0
        assert len(fields["eval_repeat_seconds"]) == 2
        assert fields["eval_workers"] == 0
