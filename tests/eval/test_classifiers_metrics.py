"""Classifier correctness on separable data; metric correctness."""

import numpy as np
import pytest

from repro.eval import (
    LinearSVMClassifier,
    LogisticRegressionClassifier,
    accuracy,
    kfold_indices,
    make_classifier,
    mean_std,
    roc_auc,
    standardize,
)


@pytest.fixture
def separable(request):
    rng = np.random.default_rng(0)
    n = 60
    x0 = rng.normal(loc=-2.0, size=(n, 4))
    x1 = rng.normal(loc=2.0, size=(n, 4))
    x = np.concatenate([x0, x1])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return x, y


@pytest.fixture
def three_class():
    rng = np.random.default_rng(1)
    centers = np.array([[4, 0], [-4, 0], [0, 4]], dtype=float)
    x = np.concatenate([rng.normal(loc=c, size=(40, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 40)
    return x, y


class TestClassifiers:
    @pytest.mark.parametrize("kind", ["logreg", "svm", "sgd"])
    def test_separable_binary(self, separable, kind):
        x, y = separable
        model = make_classifier(kind)
        model.fit(x, y)
        assert model.score(x, y) > 0.95

    @pytest.mark.parametrize("kind", ["logreg", "svm", "sgd"])
    def test_three_class(self, three_class, kind):
        x, y = three_class
        model = make_classifier(kind)
        model.fit(x, y)
        assert model.score(x, y) > 0.9

    def test_logreg_probabilities(self, separable):
        x, y = separable
        model = LogisticRegressionClassifier().fit(x, y)
        probs = model.predict_proba(x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_nonconsecutive_labels(self):
        rng = np.random.default_rng(2)
        x = np.concatenate([rng.normal(-3, size=(30, 2)),
                            rng.normal(3, size=(30, 2))])
        y = np.array([7] * 30 + [42] * 30)
        model = LinearSVMClassifier().fit(x, y)
        assert set(model.predict(x)) <= {7, 42}
        assert model.score(x, y) > 0.95

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit(np.ones((5, 2)), np.ones(5))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionClassifier().predict(np.ones((2, 2)))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_classifier("forest")

    def test_regularization_shrinks_weights(self, separable):
        x, y = separable
        weak = LogisticRegressionClassifier(l2=1e-4).fit(x, y)
        strong = LogisticRegressionClassifier(l2=10.0).fit(x, y)
        assert np.abs(strong.weight).sum() < np.abs(weak.weight).sum()


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_shape_check(self):
        with pytest.raises(ValueError):
            accuracy(np.ones(3), np.ones(4))

    def test_roc_auc_perfect(self):
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 1.0

    def test_roc_auc_inverted(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([0, 0, 1, 1])
        assert roc_auc(scores, labels) == 0.0

    def test_roc_auc_chance(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=2000)
        labels = rng.integers(0, 2, size=2000)
        assert abs(roc_auc(scores, labels) - 0.5) < 0.05

    def test_roc_auc_ties_midrank(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert roc_auc(scores, labels) == 0.5

    def test_roc_auc_validation(self):
        with pytest.raises(ValueError):
            roc_auc(np.ones(3), np.array([0, 0, 0]))
        with pytest.raises(ValueError):
            roc_auc(np.ones(3), np.array([0, 1, 2]))

    def test_mean_std(self):
        mean, std = mean_std([1.0, 3.0])
        assert mean == 2.0 and std == 1.0
        with pytest.raises(ValueError):
            mean_std([])


class TestProtocolHelpers:
    def test_standardize(self):
        rng = np.random.default_rng(0)
        train = rng.normal(loc=5, scale=3, size=(100, 4))
        test = rng.normal(size=(10, 4))
        strain, stest = standardize(train, test)
        np.testing.assert_allclose(strain.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(strain.std(axis=0), 1.0, atol=1e-10)
        assert stest.shape == (10, 4)

    def test_standardize_constant_column_safe(self):
        train = np.ones((10, 2))
        (out,) = standardize(train)
        assert np.isfinite(out).all()

    def test_kfold_partition(self):
        rng = np.random.default_rng(0)
        folds = kfold_indices(23, 5, rng)
        together = np.concatenate(folds)
        assert sorted(together) == list(range(23))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_kfold_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            kfold_indices(10, 1, rng)
        with pytest.raises(ValueError):
            kfold_indices(3, 5, rng)
