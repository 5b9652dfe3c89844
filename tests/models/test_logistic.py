"""Tests for logistic regression."""

import numpy as np
import pytest

from repro.models import LogisticRegression, softmax


def _separable(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(np.int64)
    return X, y


class TestSoftmax:
    def test_rows_sum_to_one(self):
        Z = np.random.default_rng(0).normal(size=(10, 4))
        P = softmax(Z.copy())
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_stable_with_large_logits(self):
        P = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(P).all()
        assert P[0, 0] == pytest.approx(1.0)

    def test_invariant_to_shift(self):
        Z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(Z.copy()), softmax(Z + 100.0))


class TestLogisticRegression:
    def test_fits_separable_binary(self):
        X, y = _separable()
        m = LogisticRegression().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_predict_proba_shape_and_sum(self):
        X, y = _separable()
        m = LogisticRegression().fit(X, y)
        P = m.predict_proba(X)
        assert P.shape == (X.shape[0], 2)
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(400, 2))
        y = np.digitize(X[:, 0], [-0.5, 0.5]).astype(np.int64)
        m = LogisticRegression().fit(X, y, n_classes=3)
        assert (m.predict(X) == y).mean() > 0.85

    def test_n_classes_respected_when_class_absent(self):
        X, y = _separable()
        m = LogisticRegression().fit(X, y, n_classes=4)
        assert m.predict_proba(X).shape[1] == 4

    def test_deterministic(self):
        X, y = _separable()
        a = LogisticRegression().fit(X, y).coef_
        b = LogisticRegression().fit(X, y).coef_
        np.testing.assert_allclose(a, b)

    def test_regularization_shrinks_weights(self):
        X, y = _separable()
        big = LogisticRegression(C=100.0).fit(X, y)
        small = LogisticRegression(C=0.01).fit(X, y)
        assert np.abs(small.coef_).sum() < np.abs(big.coef_).sum()

    def test_invalid_c_raises(self):
        with pytest.raises(ValueError, match="C must be positive"):
            LogisticRegression(C=0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((1, 2)))

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError, match="different numbers of rows"):
            LogisticRegression().fit(np.zeros((3, 2)), np.zeros(2, dtype=int))

    def test_single_class_requires_two(self):
        with pytest.raises(ValueError, match="at least 2"):
            LogisticRegression().fit(np.zeros((3, 2)), np.zeros(3, dtype=int))

    @pytest.mark.parametrize("labels,n_classes", [([0, -1, 2], 3), ([0, 1, 3], 3)])
    def test_label_outside_n_classes_raises(self, labels, n_classes):
        with pytest.raises(ValueError, match="labels must lie in"):
            LogisticRegression().fit(np.zeros((3, 2)), labels, n_classes=n_classes)

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError, match="cannot fit a logistic regression on an empty"):
            LogisticRegression().fit(np.zeros((0, 2)), np.zeros(0, dtype=int), n_classes=2)
