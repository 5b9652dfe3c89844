"""Partial model refits honour each estimator's exactness contract.

KNN's training state IS its data, so ``partial_update`` is exactly a
refit (bit-identical probabilities).  GaussianNB folds exactly-merged
moments, so parameters agree to floating-point rounding and predictions
agree wherever posteriors are not exactly tied (randomized workloads:
everywhere).  OnlineLogisticRegression's contract is different in kind:
``partial_update`` is bit-identical to *continuing online training*
(``partial_fit``) — deterministic, order-dependent — and explicitly NOT
a from-scratch refit.
"""

import numpy as np
import pytest

from repro.data import Dataset, Table, make_schema
from repro.models import GaussianNB, KNeighborsClassifier
from repro.models.base import TableModel
from repro.models.online import OnlineLogisticRegression


def random_xy(n, seed, d=6, n_classes=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, n_classes, size=n)


class TestKNNPartialUpdate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_fresh_fit(self, seed):
        X, y = random_xy(300, seed)
        Xq, _ = random_xy(120, seed + 10)
        inc = KNeighborsClassifier(k=5).fit(X, y, n_classes=3)
        parts_X, parts_y = [X], [y]
        for step in range(4):
            Xb, yb = random_xy(20 + 7 * step, seed + 20 + step)
            inc.partial_update(Xb, yb)
            parts_X.append(Xb)
            parts_y.append(yb)
            full = KNeighborsClassifier(k=5).fit(
                np.concatenate(parts_X), np.concatenate(parts_y), n_classes=3
            )
            np.testing.assert_array_equal(
                inc.predict_proba(Xq), full.predict_proba(Xq)
            )

    def test_rollback_restores_fit(self):
        X, y = random_xy(200, 3)
        Xq, _ = random_xy(50, 4)
        inc = KNeighborsClassifier(k=3).fit(X, y, n_classes=3)
        token = inc.checkpoint()
        for _ in range(2):  # two rejected candidates in a row
            Xb, yb = random_xy(31, 5)
            inc.partial_update(Xb, yb)
            inc.rollback(token)
        base = KNeighborsClassifier(k=3).fit(X, y, n_classes=3)
        np.testing.assert_array_equal(inc.predict_proba(Xq), base.predict_proba(Xq))

    def test_rejects_out_of_range_labels(self):
        X, y = random_xy(50, 6)
        model = KNeighborsClassifier().fit(X, y, n_classes=3)
        with pytest.raises(ValueError, match="codes"):
            model.partial_update(X[:2], np.array([3, 0]))


class TestGaussianNBPartialUpdate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_fit(self, seed):
        X, y = random_xy(400, seed)
        Xq, _ = random_xy(150, seed + 10)
        inc = GaussianNB().fit(X, y, n_classes=3)
        parts_X, parts_y = [X], [y]
        for step in range(3):
            Xb, yb = random_xy(25, seed + 30 + step)
            inc.partial_update(Xb, yb)
            parts_X.append(Xb)
            parts_y.append(yb)
        full = GaussianNB().fit(
            np.concatenate(parts_X), np.concatenate(parts_y), n_classes=3
        )
        np.testing.assert_allclose(inc.theta_, full.theta_, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(inc.var_, full.var_, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(inc.class_log_prior_, full.class_log_prior_)
        np.testing.assert_array_equal(inc.predict(Xq), full.predict(Xq))

    def test_class_absent_then_appearing(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 4))
        y = rng.integers(0, 2, size=100)  # class 2 absent at fit time
        inc = GaussianNB().fit(X, y, n_classes=3)
        Xb = rng.normal(loc=3.0, size=(30, 4))
        yb = np.full(30, 2, dtype=np.int64)
        inc.partial_update(Xb, yb)
        full = GaussianNB().fit(
            np.concatenate([X, Xb]), np.concatenate([y, yb]), n_classes=3
        )
        np.testing.assert_allclose(inc.theta_, full.theta_, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(inc.var_, full.var_, rtol=1e-9, atol=1e-12)
        Xq = rng.normal(size=(80, 4))
        np.testing.assert_array_equal(inc.predict(Xq), full.predict(Xq))

    def test_rejects_other_widths(self):
        X, y = random_xy(60, 9, d=3)
        model = GaussianNB().fit(X, y, n_classes=3)
        theta = model.theta_.copy()
        with pytest.raises(ValueError, match="X has 1 features, but the model was fitted on 3"):
            model.partial_update(X[:5, :1], y[:5])
        np.testing.assert_array_equal(model.theta_, theta)

    def test_rollback_restores_exactly(self):
        X, y = random_xy(120, 7)
        inc = GaussianNB().fit(X, y, n_classes=3)
        token = inc.checkpoint()
        Xb, yb = random_xy(15, 8)
        inc.partial_update(Xb, yb)
        inc.rollback(token)
        base = GaussianNB().fit(X, y, n_classes=3)
        np.testing.assert_array_equal(inc.theta_, base.theta_)
        np.testing.assert_array_equal(inc.var_, base.var_)
        np.testing.assert_array_equal(inc.class_log_prior_, base.class_log_prior_)


class TestOnlineLRPartialUpdate:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_partial_fit_continuation(self, seed):
        """The contract: partial_update == continuing online training."""
        X, y = random_xy(300, seed)
        Xq, _ = random_xy(100, seed + 10)
        served = OnlineLogisticRegression(random_state=seed).fit(X, y, n_classes=3)
        reference = served.clone_state()
        for step in range(4):
            Xb, yb = random_xy(20 + 5 * step, seed + 20 + step)
            served.partial_update(Xb, yb)
            reference.partial_fit(Xb, yb, n_classes=3)
            np.testing.assert_array_equal(served.W_, reference.W_)
            np.testing.assert_array_equal(served._grad_sq, reference._grad_sq)
        np.testing.assert_array_equal(
            served.predict_proba(Xq), reference.predict_proba(Xq)
        )

    def test_deterministic_and_rng_free(self):
        """No RNG is consumed: two updates from the same state agree."""
        X, y = random_xy(200, 3)
        Xb, yb = random_xy(40, 4)
        a = OnlineLogisticRegression(shuffle=True).fit(X, y, n_classes=3)
        b = a.clone_state()
        a.partial_update(Xb, yb)
        b.partial_update(Xb, yb)
        np.testing.assert_array_equal(a.W_, b.W_)

    def test_not_a_from_scratch_refit(self):
        """SGD is path-dependent: the contract is continuation, not refit."""
        X, y = random_xy(300, 5)
        Xb, yb = random_xy(60, 6)
        inc = OnlineLogisticRegression(random_state=0).fit(X, y, n_classes=3)
        inc.partial_update(Xb, yb)
        full = OnlineLogisticRegression(random_state=0).fit(
            np.concatenate([X, Xb]), np.concatenate([y, yb]), n_classes=3
        )
        assert not np.array_equal(inc.W_, full.W_)

    def test_rollback_restores_exactly_and_token_is_reusable(self):
        X, y = random_xy(150, 7)
        inc = OnlineLogisticRegression().fit(X, y, n_classes=3)
        W0, g0 = inc.W_.copy(), inc._grad_sq.copy()
        token = inc.checkpoint()
        for _ in range(2):  # two rejected candidates against one token
            Xb, yb = random_xy(25, 8)
            inc.partial_update(Xb, yb)
            inc.rollback(token)
        np.testing.assert_array_equal(inc.W_, W0)
        np.testing.assert_array_equal(inc._grad_sq, g0)

    def test_unfitted_raises(self):
        model = OnlineLogisticRegression()
        with pytest.raises(RuntimeError, match="not fitted"):
            model.partial_update(*random_xy(5, 9))
        with pytest.raises(RuntimeError, match="not fitted"):
            model.checkpoint()


SCHEMA = make_schema(numeric=["a", "b"], categorical={"c": ("x", "y", "z")})


def table_dataset(n, seed):
    rng = np.random.default_rng(seed)
    table = Table(
        SCHEMA,
        {
            "a": rng.normal(size=n),
            "b": rng.uniform(size=n),
            "c": rng.integers(0, 3, size=n),
        },
    )
    return Dataset(table, rng.integers(0, 2, size=n), ("neg", "pos"))


class TestTableModelPartialUpdate:
    def test_knn_exact_through_encoder(self):
        base, delta = table_dataset(250, 0), table_dataset(30, 1)
        inc = TableModel(KNeighborsClassifier(k=5), standardize=False).fit(base)
        assert inc.supports_partial_update
        inc.partial_update(delta)
        full_ds = Dataset.concat([base, delta])
        full = TableModel(KNeighborsClassifier(k=5), standardize=False).fit(full_ds)
        np.testing.assert_array_equal(
            inc.predict_proba(full_ds.X), full.predict_proba(full_ds.X)
        )

    def test_standardized_encoder_falls_back(self):
        """Scaler statistics are dataset-global, so deltas must refit."""
        model = TableModel(KNeighborsClassifier(k=5), standardize=True).fit(
            table_dataset(100, 2)
        )
        assert not model.supports_partial_update
        with pytest.raises(RuntimeError, match="partial-update"):
            model.partial_update(table_dataset(5, 3))

    def test_unsupported_estimator_falls_back(self):
        from repro.models import LogisticRegression

        model = TableModel(LogisticRegression(max_iter=50), standardize=False).fit(
            table_dataset(100, 4)
        )
        assert not model.supports_partial_update

    def test_constant_class_falls_back(self):
        ds = table_dataset(60, 5)
        ds = Dataset(ds.X, np.zeros(ds.n, dtype=np.int64), ds.label_names)
        model = TableModel(KNeighborsClassifier(k=3), standardize=False).fit(ds)
        assert not model.supports_partial_update

    def test_online_lr_continuation_through_encoder(self):
        base, delta = table_dataset(250, 10), table_dataset(30, 11)
        inc = TableModel(
            OnlineLogisticRegression(random_state=0), standardize=False
        ).fit(base)
        assert inc.supports_partial_update
        ref = TableModel(
            OnlineLogisticRegression(random_state=0), standardize=False
        ).fit(base)
        token = inc.checkpoint()
        inc.partial_update(delta)
        ref.estimator.partial_fit(
            ref.encoder_.transform(delta.X), delta.y, n_classes=base.n_classes
        )
        np.testing.assert_array_equal(inc.estimator.W_, ref.estimator.W_)
        inc.rollback(token)
        np.testing.assert_array_equal(
            inc.estimator.W_, TableModel(
                OnlineLogisticRegression(random_state=0), standardize=False
            ).fit(base).estimator.W_,
        )

    def test_checkpoint_rollback_through_table_model(self):
        base = table_dataset(200, 6)
        inc = TableModel(GaussianNB(), standardize=False).fit(base)
        token = inc.checkpoint()
        inc.partial_update(table_dataset(20, 7))
        inc.rollback(token)
        fresh = TableModel(GaussianNB(), standardize=False).fit(base)
        Xq = table_dataset(40, 8).X
        np.testing.assert_array_equal(inc.predict(Xq), fresh.predict(Xq))