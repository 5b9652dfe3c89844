"""Tests for GaussianNB, KNeighborsClassifier, and the extended registry."""

import numpy as np
import pytest

from repro.models import (
    EXTENDED_MODELS,
    GaussianNB,
    KNeighborsClassifier,
    extended_algorithm,
)

from tests.conftest import make_tiny_dataset


def _blobs(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal([0, 0], 0.8, (n // 2, 2)), rng.normal([3, 3], 0.8, (n // 2, 2))]
    )
    y = np.repeat([0, 1], n // 2)
    return X, y


class TestGaussianNB:
    def test_separable_blobs(self):
        X, y = _blobs()
        m = GaussianNB().fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_proba_sums_to_one(self):
        X, y = _blobs()
        P = GaussianNB().fit(X, y).predict_proba(X)
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_absent_class_handled(self):
        X, y = _blobs()
        m = GaussianNB().fit(X, y, n_classes=3)
        assert m.predict_proba(X).shape == (X.shape[0], 3)
        # Absent class never wins on data from the observed blobs.
        assert not np.any(m.predict(X) == 2)

    def test_priors_reflect_imbalance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 2))
        y = np.array([0] * 90 + [1] * 10)
        m = GaussianNB().fit(X, y)
        assert m.class_log_prior_[0] > m.class_log_prior_[1]

    def test_constant_feature_no_nan(self):
        X = np.column_stack([np.ones(40), np.linspace(0, 1, 40)])
        y = (X[:, 1] > 0.5).astype(np.int64)
        P = GaussianNB().fit(X, y).predict_proba(X)
        assert np.isfinite(P).all()

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianNB().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            GaussianNB().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2]])
    def test_label_outside_n_classes_raises(self, labels):
        # -1 used to alias the last class.
        with pytest.raises(ValueError, match="labels must lie in"):
            GaussianNB().fit(np.zeros((2, 1)), labels, n_classes=2)

    def test_invalid_smoothing_raises(self):
        with pytest.raises(ValueError, match="var_smoothing"):
            GaussianNB(var_smoothing=-1.0)


class TestKNeighborsClassifier:
    def test_separable_blobs(self):
        X, y = _blobs()
        m = KNeighborsClassifier(k=5).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_k1_memorizes_training_data(self):
        X, y = _blobs(100)
        m = KNeighborsClassifier(k=1).fit(X, y)
        np.testing.assert_array_equal(m.predict(X), y)

    def test_brute_and_balltree_agree(self):
        X, y = _blobs(150, seed=2)
        p1 = KNeighborsClassifier(k=3, algorithm="brute").fit(X, y).predict(X)
        p2 = KNeighborsClassifier(k=3, algorithm="ball_tree").fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)
        # "ball_tree" is an alias of the default exact index.
        np.testing.assert_array_equal(
            KNeighborsClassifier(k=3, algorithm="ball_tree").fit(X, y).predict_proba(X),
            KNeighborsClassifier(k=3).fit(X, y).predict_proba(X),
        )

    def test_distance_weights(self):
        X, y = _blobs()
        m = KNeighborsClassifier(k=5, weights="distance").fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_k_clipped_to_n(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        m = KNeighborsClassifier(k=10).fit(X, y)
        assert m.predict(np.array([[0.1]]))[0] in (0, 1)

    def test_proba_shape(self):
        X, y = _blobs(60)
        P = KNeighborsClassifier(k=3).fit(X, y, n_classes=4).predict_proba(X)
        assert P.shape == (60, 4)

    @pytest.mark.parametrize(
        "kwargs", [{"k": 0}, {"weights": "gaussian"}, {"algorithm": "kd_tree"}]
    )
    def test_invalid_params_raise(self, kwargs):
        with pytest.raises(ValueError):
            KNeighborsClassifier(**kwargs)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            KNeighborsClassifier().predict(np.zeros((1, 2)))

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError, match="empty dataset"):
            KNeighborsClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels", [[0, -1], [0, 2]])
    def test_label_outside_n_classes_raises(self, labels):
        # -1 used to alias the last class.
        with pytest.raises(ValueError, match="labels must lie in"):
            KNeighborsClassifier().fit(np.zeros((2, 1)), labels, n_classes=2)


class TestExtendedRegistry:
    def test_registry_superset_of_paper(self):
        assert {"LR", "RF", "LGBM", "NB", "KNN"} <= set(EXTENDED_MODELS)

    @pytest.mark.parametrize("name", ["NB", "KNN"])
    def test_extended_algorithms_train_on_tables(self, name):
        ds = make_tiny_dataset(80)
        model = extended_algorithm(name)(ds)
        assert (model.predict(ds.X) == ds.y).mean() > 0.6

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            extended_algorithm("SVM")

    def test_frote_works_with_extension_models(self, mixed_dataset):
        """The model-agnostic claim: FROTE edits NB and KNN too."""
        import repro
        from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause

        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(Predicate("age", "<", 35.0)), 0, 2
                ),
            )
        )
        for name in ("NB", "KNN"):
            alg = extended_algorithm(name)
            result = (
                repro.edit(mixed_dataset)
                .with_rules(frs)
                .with_algorithm(alg)
                .configure(tau=3, q=0.3, eta=10, random_state=0)
                .run()
            )
            assert result.iterations <= 3
