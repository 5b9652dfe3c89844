"""Tests for logistic regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def lr_problems(draw):
    """LR fits: 1 to 200 rows, continuous (unit or 1e3 scale), constant
    and one-hot columns, 2 to 9 classes (from eight, each row's sum is
    pairwise), absent classes, and warm starts."""
    n = draw(st.integers(min_value=1, max_value=200))
    n_classes = draw(st.integers(min_value=2, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e3]))
    blocks = [rng.normal(size=(n, draw(st.integers(min_value=0, max_value=4)))) * scale]
    if draw(st.booleans()):
        blocks.append(np.full((n, 1), draw(st.sampled_from([0.0, 1.0, -2.5]))))
    if draw(st.booleans()):
        cats = draw(st.integers(min_value=2, max_value=5))
        blocks.append(np.eye(cats)[rng.integers(0, cats, n)])
    X = np.hstack(blocks)
    if X.shape[1] == 0:
        X = rng.normal(size=(n, 1))
    present = draw(st.integers(min_value=1, max_value=n_classes))
    classes = rng.choice(n_classes, size=present, replace=False)
    y = classes[rng.integers(0, present, n)]
    warm = None
    if draw(st.booleans()):
        warm = (rng.normal(size=(X.shape[1], n_classes)), rng.normal(size=n_classes))
    return X, y, n_classes, warm


class TestSolverParity:
    @settings(max_examples=120, deadline=None)
    @given(
        problem=lr_problems(),
        max_iter=st.sampled_from([1, 2, 5, 500]),
        C=st.sampled_from([0.01, 1.0, 100.0]),
    )
    def test_fit_matches_scipy_minimize(self, problem, max_iter, C):
        """``fit`` walks the path ``minimize(method="L-BFGS-B")`` walks on
        the same objective: the same solution bytes and iteration count."""
        from scipy.optimize import minimize

        X, y, n_classes, warm = problem
        n, d = X.shape
        lr = LogisticRegression(C=C, max_iter=max_iter)
        w0 = np.zeros((d + 1) * n_classes)
        if warm is not None:
            lr.warm_start_from(*warm)
            w0 = np.concatenate([warm[0].ravel(), warm[1]])
        lr.fit(X, y, n_classes=n_classes)
        res = minimize(
            LogisticRegression._objective(X, y, n_classes, lam=1.0 / (C * n)),
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "gtol": lr.tol},
        )
        assert lr.coef_.tobytes() == res.x[: d * n_classes].tobytes()
        assert lr.intercept_.tobytes() == res.x[d * n_classes :].tobytes()
        assert lr.n_iter_ == res.nit

    @pytest.mark.parametrize("seed", [7, 8])
    def test_long_line_searches_match_minimize(self, seed):
        """A warm start on columns of scale 1e3 makes line searches run into
        the 20-step cap: a cap of 19 walks another path (checked below),
        and ``fit`` walks the capped path ``minimize`` walks."""
        from scipy.optimize import minimize

        rng = np.random.default_rng(seed)
        n, d, n_classes = 9, 4, 4
        X = rng.normal(size=(n, d)) * 1e3
        y = rng.integers(0, n_classes, n)
        w0 = rng.normal(size=(d + 1) * n_classes)
        lr = LogisticRegression(C=100.0).warm_start_from(
            w0[: d * n_classes].reshape(d, n_classes), w0[d * n_classes :]
        )
        lr.fit(X, y, n_classes=n_classes)
        objective = LogisticRegression._objective(X, y, n_classes, lam=1.0 / (100.0 * n))
        options = {"maxiter": lr.max_iter, "gtol": lr.tol}
        res = minimize(objective, w0, jac=True, method="L-BFGS-B", options=options)
        short = minimize(
            objective, w0, jac=True, method="L-BFGS-B", options={**options, "maxls": 19}
        )
        assert short.x.tobytes() != res.x.tobytes()
        assert np.concatenate([lr.coef_.ravel(), lr.intercept_]).tobytes() == res.x.tobytes()
        assert lr.n_iter_ == res.nit
