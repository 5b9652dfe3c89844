"""Tests for the random forest."""

import numpy as np
import pytest
import seed_reference as seed_ref

from repro.models import RandomForestClassifier


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    return X, y


class TestRandomForest:
    def test_learns_signal(self):
        X, y = _data()
        m = RandomForestClassifier(n_estimators=20, max_depth=4, random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.85

    def test_proba_shape(self):
        X, y = _data()
        m = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        P = m.predict_proba(X)
        assert P.shape == (X.shape[0], 2)
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_reproducible_with_seed(self):
        X, y = _data()
        a = RandomForestClassifier(n_estimators=8, random_state=42).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=8, random_state=42).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        X, y = _data()
        pa = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y).predict_proba(X)
        pb = RandomForestClassifier(n_estimators=3, random_state=1).fit(X, y).predict_proba(X)
        assert not np.allclose(pa, pb)

    def test_n_estimators_trees_built(self):
        X, y = _data(100)
        m = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(m.trees_) == 7

    def test_no_bootstrap(self):
        X, y = _data(100)
        m = RandomForestClassifier(n_estimators=3, bootstrap=False, random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.8

    def test_multiclass(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 3))
        y = np.digitize(X[:, 0], [-0.6, 0.6]).astype(np.int64)
        m = RandomForestClassifier(n_estimators=25, max_depth=5, random_state=0)
        m.fit(X, y, n_classes=3)
        assert (m.predict(X) == y).mean() > 0.8

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestClassifier(n_estimators=0)

    @pytest.mark.parametrize(
        "params", [{"max_depth": -1}, {"max_features": 0}, {"max_features": -2}]
    )
    def test_invalid_tree_params_raise_at_construction(self, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            RandomForestClassifier(**params)

    @pytest.mark.parametrize("max_features", ["log2", "SQRT", 0.5, 1.5, True, False, [2]])
    def test_max_features_outside_none_sqrt_int_raises_at_construction(self, max_features):
        """Only None, "sqrt" or an int >= 1 name a feature count; a bool
        is an int to Python but not a count."""
        with pytest.raises(ValueError, match="max_features"):
            RandomForestClassifier(max_features=max_features)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_no_columns_averages_the_class_distributions(self, bootstrap):
        """Every tree is one leaf holding its sample's class distribution."""
        X = np.zeros((9, 0))
        y = np.array([0, 1, 1, 2, 0, 1, 1, 2, 2])
        params = {"n_estimators": 5, "bootstrap": bootstrap, "random_state": 0}
        m = RandomForestClassifier(**params).fit(X, y)
        seed = seed_ref.SeedSplitForest(**params).fit(X, y)
        assert [t.n_nodes for t in m.trees_] == [1] * 5
        assert m.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    def test_label_outside_n_classes_raises(self):
        X, y = _data(20)
        with pytest.raises(ValueError, match="labels must lie in"):
            RandomForestClassifier(n_estimators=2).fit(X, y + 1, n_classes=2)

    def test_empty_data_raises(self):
        with pytest.raises(ValueError, match="cannot fit a tree on an empty dataset"):
            RandomForestClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_paper_config_shallow_trees(self):
        X, y = _data()
        m = RandomForestClassifier(max_depth=3, random_state=0).fit(X, y)
        assert all(t.depth <= 3 for t in m.trees_)
