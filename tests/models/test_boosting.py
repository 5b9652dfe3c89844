"""Tests for the histogram GBDT (LightGBM substitute)."""

import numpy as np
import pytest

from repro.models import GradientBoostingClassifier
from repro.models.boosting import _Binner


def _data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


class TestBinner:
    def test_bins_within_bounds(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 2))
        b = _Binner(max_bins=16).fit(X)
        B = b.transform(X)
        for f in range(2):
            assert B[:, f].min() >= 0
            assert B[:, f].max() < b.n_bins(f)

    def test_monotone_binning(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        B = _Binner(max_bins=8).fit(X).transform(X)
        assert np.all(np.diff(B[:, 0]) >= 0)

    def test_constant_feature_single_bin(self):
        X = np.full((50, 1), 2.0)
        b = _Binner().fit(X)
        assert b.n_bins(0) <= 2

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError, match="max_bins"):
            _Binner(max_bins=1)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            _Binner().transform(np.zeros((1, 1)))


class TestGradientBoosting:
    def test_learns_xor(self):
        X, y = _data()
        m = GradientBoostingClassifier(n_estimators=40).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.9

    def test_binary_proba(self):
        X, y = _data()
        m = GradientBoostingClassifier(n_estimators=10).fit(X, y)
        P = m.predict_proba(X)
        assert P.shape == (X.shape[0], 2)
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_multiclass(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 3))
        y = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.5, 0.5]).astype(np.int64)
        m = GradientBoostingClassifier(n_estimators=25).fit(X, y, n_classes=3)
        assert (m.predict(X) == y).mean() > 0.85
        assert m.predict_proba(X).shape == (500, 3)

    def test_more_rounds_reduce_training_error(self):
        X, y = _data(600, seed=2)
        few = GradientBoostingClassifier(n_estimators=3).fit(X, y)
        many = GradientBoostingClassifier(n_estimators=50).fit(X, y)
        assert (many.predict(X) == y).mean() >= (few.predict(X) == y).mean()

    def test_deterministic(self):
        X, y = _data()
        a = GradientBoostingClassifier(n_estimators=5).fit(X, y).predict_proba(X)
        b = GradientBoostingClassifier(n_estimators=5).fit(X, y).predict_proba(X)
        np.testing.assert_allclose(a, b)

    def test_max_depth_limits_trees(self):
        X, y = _data()
        m = GradientBoostingClassifier(n_estimators=5, max_depth=1).fit(X, y)
        # Depth-1 trees cannot solve XOR.
        assert (m.predict(X) == y).mean() < 0.8

    def test_small_dataset(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]] * 3)
        y = np.array([0, 0, 1, 1] * 3)
        m = GradientBoostingClassifier(n_estimators=5, min_child_samples=1).fit(X, y)
        assert (m.predict(X) == y).mean() >= 0.75

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="n_estimators"):
            GradientBoostingClassifier(n_estimators=0)
        with pytest.raises(ValueError, match="learning_rate"):
            GradientBoostingClassifier(learning_rate=0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GradientBoostingClassifier().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            GradientBoostingClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2]])
    def test_label_outside_n_classes_raises(self, labels):
        with pytest.raises(ValueError, match="labels must lie in"):
            GradientBoostingClassifier().fit(np.zeros((2, 1)), labels, n_classes=2)

    def test_single_class_label_with_n_classes(self):
        # All labels 0 but n_classes=2: base score saturates, still predicts 0.
        X = np.random.default_rng(0).normal(size=(30, 2))
        y = np.zeros(30, dtype=np.int64)
        m = GradientBoostingClassifier(n_estimators=3).fit(X, y, n_classes=2)
        assert (m.predict(X) == 0).all()
