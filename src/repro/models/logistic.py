"""Multinomial logistic regression trained with L-BFGS.

Re-implements the paper's scikit-learn ``LogisticRegression(max_iter=500)``
configuration: softmax cross-entropy with L2 regularization (C = 1.0,
intercept unpenalized), optimized via :func:`scipy.optimize.minimize`.

The objective takes one shifted exponential per evaluation and reuses it,
normalized in place, as the gradient.  It makes no NumPy reduction along
the short class axis and no 2-D fancy index, because each of those pays a
fixed cost per row; yet it reproduces NumPy's summation order, so every
fitted bit is the bit the plain reductions give:

* The row max is a running ``np.maximum`` over the columns.  Max is exact,
  so any class count keeps the bits.
* The row sums are a sequential column loop below eight classes.  NumPy
  adds a row of fewer than eight terms one after another; from eight it
  sums pairwise, so there ``E.sum(axis=1)`` stays.  The cutoff is NumPy's,
  not a tuning knob.
* The intercept gradient is ``np.cumsum`` down each column.  A reduction
  over axis 0 of a C-ordered array adds row by row, as ``cumsum`` does;
  ``E[:, c].sum()`` would sum pairwise and change the bits.
* The label logits are a flat ``take`` and the one-hot subtraction is
  ``E -= Y``: subtracting ``+0.0`` leaves every double unchanged.

The two BLAS products stay as they are: their bits depend on memory order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import minimize

from repro.utils.validation import check_fit_inputs, check_predict_input


def _shifted_exp(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``exp(Z - row max)`` as a new array, with the row max and row sums.

    Below eight columns the row sums are a column loop, which adds in the
    order ``E.sum(axis=1)`` does; from eight NumPy sums pairwise, so the
    reduction stays.
    """
    Zmax = Z[:, 0].copy()
    for c in range(1, Z.shape[1]):
        np.maximum(Zmax, Z[:, c], out=Zmax)
    E = Z - Zmax[:, None]
    np.exp(E, out=E)
    if Z.shape[1] >= 8:
        return E, Zmax, E.sum(axis=1)
    S = E[:, 0].copy()
    for c in range(1, Z.shape[1]):
        S += E[:, c]
    return E, Zmax, S


def softmax(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability."""
    E, _, S = _shifted_exp(Z)
    E /= S[:, None]
    return E


class LogisticRegression:
    """Softmax regression with L2 penalty.

    Parameters
    ----------
    C:
        Inverse regularization strength (scikit-learn convention).
    max_iter:
        L-BFGS iteration cap; the paper uses 500.
    tol:
        Gradient tolerance for convergence.
    warm_start:
        Seed the optimizer with this instance's previous ``coef_`` /
        ``intercept_`` (when shapes still match) instead of zeros.
        Changes the L-BFGS iterate path, not the problem: the objective
        is strictly convex, so the optimum is the same up to ``tol`` —
        but iterates, iteration counts (``n_iter_``), and therefore exact
        coefficient bits may differ from a cold fit.  Off by default;
        the parity-pinned paths never enable it.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 500,
        tol: float = 1e-6,
        warm_start: bool = False,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.warm_start = warm_start
        self.coef_: np.ndarray | None = None  # (n_features, n_classes)
        self.intercept_: np.ndarray | None = None  # (n_classes,)
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None
        self.n_iter_: int | None = None  # L-BFGS iterations of the last fit
        self._init_coef: np.ndarray | None = None
        self._init_intercept: np.ndarray | None = None

    def warm_start_from(self, coef: np.ndarray, intercept: np.ndarray) -> "LogisticRegression":
        """Seed the next :meth:`fit`'s optimizer with explicit coefficients.

        The seed is consumed by that fit; later fits start as
        ``warm_start`` says.

        Used by :func:`repro.models.base.make_algorithm`'s warm-start
        path, where every refit builds a *fresh* estimator (so the
        previous fit's coefficients must be handed over explicitly
        rather than read off ``self``).  Ignored if the shapes don't
        match the next fit's problem.
        """
        self._init_coef = np.array(coef, dtype=np.float64, copy=True)
        self._init_intercept = np.array(intercept, dtype=np.float64, copy=True)
        return self

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "LogisticRegression":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="logistic regression")
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        n, d = X.shape
        self.n_classes_ = n_classes
        self.n_features_in_ = d
        objective = self._objective(X, y, n_classes, lam=1.0 / (self.C * n))

        w0 = np.zeros(d * n_classes + n_classes)
        # An explicit seed serves this fit only.
        init_coef, init_intercept = self._init_coef, self._init_intercept
        self._init_coef = self._init_intercept = None
        if init_coef is None and self.warm_start and self.coef_ is not None:
            init_coef, init_intercept = self.coef_, self.intercept_
        if (
            init_coef is not None
            and init_intercept is not None
            and init_coef.shape == (d, n_classes)
            and init_intercept.shape == (n_classes,)
        ):
            w0 = np.concatenate([np.ravel(init_coef), init_intercept])
        res = minimize(
            objective,
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        w = res.x
        self.coef_ = w[: d * n_classes].reshape(d, n_classes)
        self.intercept_ = w[d * n_classes :]
        self.n_iter_ = int(res.nit)
        return self

    @staticmethod
    def _objective(
        X: np.ndarray, y: np.ndarray, n_classes: int, lam: float
    ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        """Loss and gradient of the flat parameters ``[W.ravel(), b]``."""
        n, d = X.shape
        # Flat positions of the label logits, and the one-hot labels.
        lab = np.arange(n) * n_classes + y
        Y = np.zeros((n, n_classes))
        Y.ravel()[lab] = 1.0

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat[: d * n_classes].reshape(d, n_classes)
            b = w_flat[d * n_classes :]
            Z = X @ W
            Z += b
            E, Zmax, S = _shifted_exp(Z)
            ll = (Z.ravel().take(lab) - (Zmax + np.log(S))).sum()
            # E becomes the softmax minus the one-hot labels.
            E /= S[:, None]
            E -= Y
            grad_W = X.T @ E / n + 2.0 * lam * W
            # Row by row down each column: the order of an axis-0 reduction.
            grad_b = np.array([np.cumsum(E[:, c])[-1] for c in range(n_classes)]) / n
            loss = -ll / n + lam * float((W * W).sum())
            return loss, np.concatenate([grad_W.ravel(), grad_b])

        return objective

    # ------------------------------------------------------------------ #
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self.intercept_ is None:
            raise RuntimeError("LogisticRegression is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1).astype(np.int64)
