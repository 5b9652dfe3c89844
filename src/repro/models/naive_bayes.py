"""Gaussian naive Bayes classifier.

A fourth model family beyond the paper's three (LR/RF/LGBM), used in the
extension ablations to stress FROTE's model-agnostic claim — the black-box
contract only needs ``fit``/``predict_proba``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import (
    check_array_1d,
    check_fit_inputs,
    check_predict_input,
)


class GaussianNB:
    """Per-class diagonal Gaussian likelihoods with a shared variance floor.

    Parameters
    ----------
    var_smoothing:
        Fraction of the largest feature variance added to every per-class
        variance for numerical stability (scikit-learn convention).
    """

    #: Partial-refit protocol: sufficient statistics (per-class counts,
    #: means, and centred second moments) update in place in
    #: O(batch · d) — see :meth:`partial_update`.
    supports_partial_update = True

    def __init__(self, var_smoothing: float = 1e-9) -> None:
        if var_smoothing < 0:
            raise ValueError(f"var_smoothing must be >= 0, got {var_smoothing}")
        self.var_smoothing = var_smoothing
        self.theta_: np.ndarray | None = None  # (n_classes, d) means
        self.var_: np.ndarray | None = None  # (n_classes, d) variances
        self.class_log_prior_: np.ndarray | None = None
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None
        # Sufficient statistics for incremental refits: per-class counts,
        # means, and centred second moments (M2, à la Welford/Chan), plus
        # the same trio over all rows for the smoothing eps and the
        # absent-class fallback.
        self._count: np.ndarray | None = None  # (n_classes,)
        self._mean: np.ndarray | None = None  # (n_classes, d)
        self._m2: np.ndarray | None = None  # (n_classes, d)
        self._g_n: int = 0
        self._g_mean: np.ndarray | None = None  # (d,)
        self._g_m2: np.ndarray | None = None  # (d,)

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "GaussianNB":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="naive Bayes model")
        self.n_classes_ = n_classes
        self.n_features_in_ = X.shape[1]
        n, d = X.shape
        theta = np.zeros((n_classes, d))
        var = np.ones((n_classes, d))
        prior = np.full(n_classes, 1e-10)
        count = np.zeros(n_classes)
        mean = np.zeros((n_classes, d))
        m2 = np.zeros((n_classes, d))
        global_var = X.var(axis=0).max() if n > 1 else 1.0
        eps = self.var_smoothing * max(global_var, 1e-12)
        for c in range(n_classes):
            rows = y == c
            cnt = int(rows.sum())
            if cnt == 0:
                # Absent class: keep a vague prior-centered Gaussian.
                theta[c] = X.mean(axis=0)
                var[c] = max(global_var, 1.0)
                continue
            prior[c] = cnt
            count[c] = cnt
            mean[c] = X[rows].mean(axis=0)
            m2[c] = X[rows].var(axis=0) * cnt
            theta[c] = mean[c]
            var[c] = X[rows].var(axis=0) + eps + 1e-12
        self.theta_ = theta
        self.var_ = var
        self.class_log_prior_ = np.log(prior / prior.sum())
        self._count = count
        self._mean = mean
        self._m2 = m2
        self._g_n = n
        self._g_mean = X.mean(axis=0)
        self._g_m2 = X.var(axis=0) * n
        return self

    # ------------------------------------------------------------------ #
    # Incremental refits.
    @staticmethod
    def _merge(
        n_a: np.ndarray, mean_a: np.ndarray, m2_a: np.ndarray,
        n_b: np.ndarray, mean_b: np.ndarray, m2_b: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Chan's parallel merge of (count, mean, M2) moment triples."""
        n = n_a + n_b
        safe_n = np.where(n > 0, n, 1.0)
        delta = mean_b - mean_a
        mean = mean_a + delta * (n_b / safe_n)
        m2 = m2_a + m2_b + delta * delta * (n_a * n_b / safe_n)
        return n, mean, m2

    def partial_update(self, X_new: np.ndarray, y_new: np.ndarray) -> "GaussianNB":
        """Fold appended rows into the sufficient statistics in place.

        Mathematically equivalent to refitting on the concatenated data:
        means, variances, the shared smoothing eps, and the class priors
        are all recomputed from exactly-merged moments — only
        floating-point association differs from a batch ``fit``, so
        parameters agree to rounding error and predictions agree wherever
        the class posteriors are not exactly tied.

        Parameters
        ----------
        X_new : ndarray of shape (n_new, n_features)
            Appended feature rows.
        y_new : ndarray of shape (n_new,)
            Their labels (codes within the fitted ``n_classes_``).
        """
        if self.theta_ is None or self._count is None or self.n_classes_ is None:
            raise RuntimeError("GaussianNB is not fitted")
        X_new = check_predict_input(X_new, self.n_features_in_)
        y_new = check_array_1d(y_new, name="y_new", dtype=np.int64)
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("X_new and y_new have different numbers of rows")
        if y_new.size and (y_new.min() < 0 or y_new.max() >= self.n_classes_):
            raise ValueError(f"y_new has codes outside [0, {self.n_classes_})")
        if X_new.shape[0] == 0:
            return self
        n_b = X_new.shape[0]
        mean_b = X_new.mean(axis=0)
        m2_b = X_new.var(axis=0) * n_b
        g_n, self._g_mean, self._g_m2 = self._merge(
            np.float64(self._g_n), self._g_mean, self._g_m2,
            np.float64(n_b), mean_b, m2_b,
        )
        self._g_n = int(g_n)
        for c in np.unique(y_new):
            rows = y_new == c
            cnt = int(rows.sum())
            cm = X_new[rows].mean(axis=0)
            cm2 = X_new[rows].var(axis=0) * cnt
            self._count[c], self._mean[c], self._m2[c] = self._merge(
                self._count[c], self._mean[c], self._m2[c],
                np.float64(cnt), cm, cm2,
            )
        self._refresh_parameters()
        return self

    def _refresh_parameters(self) -> None:
        """Recompute (theta, var, prior) from the sufficient statistics.

        O(n_classes · d) — independent of the number of training rows.
        The smoothing eps depends on the *global* variance, so every
        class refreshes, not just the ones the batch touched.
        """
        assert self._count is not None and self._mean is not None
        assert self._m2 is not None and self._g_mean is not None
        global_var = float((self._g_m2 / self._g_n).max()) if self._g_n > 1 else 1.0
        eps = self.var_smoothing * max(global_var, 1e-12)
        present = self._count > 0
        counts = np.where(present, self._count, 1.0)
        theta = np.where(present[:, None], self._mean, self._g_mean[None, :])
        var = np.where(
            present[:, None],
            self._m2 / counts[:, None] + eps + 1e-12,
            max(global_var, 1.0),
        )
        prior = np.where(present, self._count, 1e-10)
        self.theta_ = theta
        self.var_ = var
        self.class_log_prior_ = np.log(prior / prior.sum())

    def checkpoint(self):
        """Cheap state token (O(n_classes · d) copies) for :meth:`rollback`."""
        if self.theta_ is None or self._count is None:
            raise RuntimeError("GaussianNB is not fitted")
        return (
            self.theta_.copy(), self.var_.copy(), self.class_log_prior_.copy(),
            self._count.copy(), self._mean.copy(), self._m2.copy(),
            self._g_n, self._g_mean.copy(), self._g_m2.copy(),
        )

    def rollback(self, token) -> None:
        """Restore the state captured by :meth:`checkpoint`."""
        (
            self.theta_, self.var_, self.class_log_prior_,
            self._count, self._mean, self._m2,
            self._g_n, self._g_mean, self._g_m2,
        ) = token

    def _joint_log_likelihood(self, X: np.ndarray) -> np.ndarray:
        assert self.theta_ is not None and self.var_ is not None
        assert self.class_log_prior_ is not None
        X = check_predict_input(X, self.n_features_in_)
        n_classes = self.theta_.shape[0]
        jll = np.empty((X.shape[0], n_classes))
        for c in range(n_classes):
            diff = X - self.theta_[c]
            log_pdf = -0.5 * (
                np.log(2.0 * np.pi * self.var_[c]) + diff * diff / self.var_[c]
            ).sum(axis=1)
            jll[:, c] = self.class_log_prior_[c] + log_pdf
        return jll

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.theta_ is None:
            raise RuntimeError("GaussianNB is not fitted")
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        P = np.exp(jll)
        P /= P.sum(axis=1, keepdims=True)
        return P

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.theta_ is None:
            raise RuntimeError("GaussianNB is not fitted")
        return np.argmax(self._joint_log_likelihood(X), axis=1).astype(np.int64)
