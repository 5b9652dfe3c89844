"""Warm-started batch-LR refits (opt-in, off on the parity-pinned path).

FROTE's successive training sets differ by one accepted batch, so
seeding each refit's optimizer with the previous coefficients shortens
the L-BFGS iterate path substantially.  The default path must keep
cold-starting — zero-init, bit-identical across calls — so the paper
parity pins are untouched.
"""

from __future__ import annotations

import numpy as np

from repro.models import LogisticRegression, make_algorithm
from repro.models import algorithm as named_algorithm

from conftest import make_tiny_dataset

DATASET = make_tiny_dataset(n=200, seed=21)


class TestEstimatorSeeding:
    def fit_xy(self, seed=0, n=300, d=4):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = (X @ rng.normal(size=d) + 0.1 * rng.normal(size=n) > 0).astype(int)
        return X, y

    def test_warm_start_from_shortens_iterate_path(self):
        X, y = self.fit_xy()
        cold = LogisticRegression().fit(X, y, n_classes=2)
        assert cold.n_iter_ > 1
        warm = LogisticRegression()
        warm.warm_start_from(cold.coef_, cold.intercept_)
        warm.fit(X, y, n_classes=2)
        # Seeded at the optimum of the same problem: near-immediate stop.
        assert warm.n_iter_ < cold.n_iter_
        np.testing.assert_allclose(warm.coef_, cold.coef_, atol=1e-4)

    def test_shape_mismatch_falls_back_to_zero_init(self):
        X, y = self.fit_xy()
        cold = LogisticRegression().fit(X, y, n_classes=2)
        seeded = LogisticRegression()
        seeded.warm_start_from(np.zeros((7, 2)), np.zeros(2))  # wrong d
        seeded.fit(X, y, n_classes=2)
        np.testing.assert_array_equal(seeded.coef_, cold.coef_)
        assert seeded.n_iter_ == cold.n_iter_

    def test_explicit_seed_serves_one_cold_fit(self):
        X, y = self.fit_xy()
        rng = np.random.default_rng(5)
        lr = LogisticRegression(warm_start=False)
        lr.warm_start_from(rng.normal(size=(4, 2)), rng.normal(size=2))
        lr.fit(X, y, n_classes=2)
        lr.fit(X, y, n_classes=2)
        cold = LogisticRegression().fit(X, y, n_classes=2)
        assert lr.coef_.tobytes() == cold.coef_.tobytes()
        assert lr.intercept_.tobytes() == cold.intercept_.tobytes()
        assert lr.n_iter_ == cold.n_iter_

    def test_explicit_seed_serves_one_warm_fit(self):
        X, y = self.fit_xy()
        X2, y2 = self.fit_xy(seed=1)
        rng = np.random.default_rng(5)
        lr = LogisticRegression(warm_start=True)
        lr.warm_start_from(rng.normal(size=(4, 2)), rng.normal(size=2))
        lr.fit(X, y, n_classes=2)
        expected = LogisticRegression().warm_start_from(lr.coef_, lr.intercept_)
        expected.fit(X2, y2, n_classes=2)
        lr.fit(X2, y2, n_classes=2)
        assert lr.coef_.tobytes() == expected.coef_.tobytes()
        assert lr.intercept_.tobytes() == expected.intercept_.tobytes()
        assert lr.n_iter_ == expected.n_iter_

    def test_default_fit_is_deterministic_zero_init(self):
        X, y = self.fit_xy()
        a = LogisticRegression().fit(X, y, n_classes=2)
        b = LogisticRegression().fit(X, y, n_classes=2)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        np.testing.assert_array_equal(a.intercept_, b.intercept_)
        assert a.n_iter_ == b.n_iter_


class TestAlgorithmWrapper:
    def test_warm_algorithm_reuses_previous_coefficients(self):
        calls = []

        def factory():
            est = LogisticRegression()
            calls.append(est)
            return est

        algo = make_algorithm(factory, warm_start=True)
        algo(DATASET)
        algo(DATASET)  # identical dataset -> warm refit converges at once
        assert calls[0].n_iter_ > 1
        assert calls[1].n_iter_ < calls[0].n_iter_

    def test_cold_algorithm_is_bit_identical_across_calls(self):
        calls = []

        def factory():
            est = LogisticRegression()
            calls.append(est)
            return est

        algo = make_algorithm(factory)  # default: no warm start
        algo(DATASET)
        algo(DATASET)
        np.testing.assert_array_equal(calls[0].coef_, calls[1].coef_)
        assert calls[0].n_iter_ == calls[1].n_iter_

    def test_fresh_estimator_per_fit(self):
        calls = []

        def factory():
            est = LogisticRegression()
            calls.append(est)
            return est

        algo = make_algorithm(factory, warm_start=True)
        algo(DATASET)
        algo(DATASET)
        assert calls[0] is not calls[1]

    def test_named_algorithm_accepts_warm_start(self):
        cold = named_algorithm("LR")
        warm = named_algorithm("LR", warm_start=True)
        a, b = cold(DATASET), warm(DATASET)
        # First warm fit has no previous coefficients: same zero init.
        np.testing.assert_array_equal(
            a.predict(DATASET.X), b.predict(DATASET.X)
        )

    def test_warm_refit_agrees_within_tolerance(self):
        """Convex objective: warm and cold land on the same optimum."""
        warm_algo = make_algorithm(LogisticRegression, warm_start=True)
        warm_algo(DATASET)
        warm_model = warm_algo(DATASET)
        cold_model = make_algorithm(LogisticRegression)(DATASET)
        np.testing.assert_allclose(
            warm_model.predict_proba(DATASET.X),
            cold_model.predict_proba(DATASET.X),
            atol=1e-4,
        )
