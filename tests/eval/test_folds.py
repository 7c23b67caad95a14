"""Fold plans: validity and class coverage from label bincounts."""

import numpy as np

from repro.eval import evaluate_graph_embeddings, kfold_indices, plan_folds
from repro.utils.seed import seeded_rng


def make_plan(labels, folds, seed=0):
    classes, class_ids = np.unique(labels, return_inverse=True)
    fold_list = kfold_indices(len(labels), folds, seeded_rng(seed))
    return plan_folds(class_ids, fold_list, len(classes)), fold_list


class TestPlanFolds:
    def test_train_indices_match_reference_order(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=20)
        plan, fold_list = make_plan(labels, folds=5)
        for position in plan.valid:
            expected = np.concatenate(
                [f for i, f in enumerate(fold_list) if i != position])
            np.testing.assert_array_equal(plan.train_indices(position),
                                          expected)

    def test_degenerate_fold_matches_reference_skip_rule(self):
        # One lone sample of class 1: the fold holding it leaves a
        # single-class training split — exactly what the reference's
        # ``len(np.unique(labels[train_idx])) < 2`` check drops.
        labels = np.zeros(12, dtype=int)
        labels[4] = 1
        plan, fold_list = make_plan(labels, folds=6)
        expected_valid = [
            i for i, fold in enumerate(fold_list)
            if len(np.unique(labels[np.concatenate(
                [f for j, f in enumerate(fold_list) if j != i])])) >= 2]
        assert plan.valid == expected_valid
        assert plan.skipped == 6 - len(expected_valid) == 1

    def test_covered_false_when_class_fully_held_out(self):
        # Class 2 lives entirely in fold 0: its training complement still
        # has two classes (valid) but misses a global class (uncovered).
        class_ids = np.array([2, 2, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        fold_list = [np.array([0, 1, 2, 3]), np.array([4, 5, 6, 7]),
                     np.array([8, 9, 10, 11])]
        plan = plan_folds(class_ids, fold_list, num_classes=3)
        assert plan.valid == [0, 1, 2]
        assert plan.covered.tolist() == [False, True, True]

    def test_constant_column_floors_to_one(self):
        # The engine standardizes with the reference's own ``standardize``,
        # so a constant column takes the same 1.0 floor on both paths.
        x = np.ones((20, 2))
        x[:, 1] = np.arange(20.0)
        labels = np.array([0, 1] * 10)
        ref = evaluate_graph_embeddings(x, labels, folds=2, repeats=2,
                                        engine="reference")
        fast = evaluate_graph_embeddings(x, labels, folds=2, repeats=2,
                                         engine="fast")
        assert fast == ref
