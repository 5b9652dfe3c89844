"""Multinomial logistic regression trained with L-BFGS.

Re-implements the paper's scikit-learn ``LogisticRegression(max_iter=500)``
configuration: softmax cross-entropy with L2 regularization (C = 1.0,
intercept unpenalized), optimized via :func:`scipy.optimize.minimize`.

The objective takes one shifted exponential per evaluation and reuses it,
normalized in place, as the gradient.  Its row max is a running
``np.maximum`` over the columns: a NumPy reduction along a short row (two
classes) pays a fixed cost per row, and max is exact, so any class count
keeps the bits of a reduction.  The two ``sum`` reductions must stay as
they are: a column loop adds in another order (NumPy sums eight or more
terms pairwise, and axis 0 row by row) and changes the fitted bits.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import minimize

from repro.utils.validation import check_array_2d, check_fit_inputs


def _shifted_exp(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``exp(Z - row max)`` as a new array, with the row max and row sums."""
    Zmax = Z[:, 0].copy()
    for c in range(1, Z.shape[1]):
        np.maximum(Zmax, Z[:, c], out=Zmax)
    E = Z - Zmax[:, None]
    np.exp(E, out=E)
    return E, Zmax, E.sum(axis=1)


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
        self.n_iter_: int | None = None  # L-BFGS iterations of the last fit
        self._init_coef: np.ndarray | None = None
        self._init_intercept: np.ndarray | None = None

    def warm_start_from(self, coef: np.ndarray, intercept: np.ndarray) -> "LogisticRegression":
        """Seed the next :meth:`fit`'s optimizer with explicit coefficients.

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
        objective = self._objective(X, y, n_classes, lam=1.0 / (self.C * n))

        w0 = np.zeros(d * n_classes + n_classes)
        init_coef, init_intercept = self._init_coef, self._init_intercept
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
        rows = np.arange(n)

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat[: d * n_classes].reshape(d, n_classes)
            b = w_flat[d * n_classes :]
            Z = X @ W + b
            E, Zmax, S = _shifted_exp(Z)
            ll = (Z[rows, y] - (Zmax + np.log(S))).sum()
            # E becomes the softmax minus the one-hot labels.
            E /= S[:, None]
            E[rows, y] -= 1.0
            grad_W = X.T @ E / n + 2.0 * lam * W
            grad_b = E.sum(axis=0) / n  # kept a reduction: see the module docstring
            loss = -ll / n + lam * float((W * W).sum())
            return loss, np.concatenate([grad_W.ravel(), grad_b])

        return objective

    # ------------------------------------------------------------------ #
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None or self.intercept_ is None:
            raise RuntimeError("LogisticRegression is not fitted")
        X = check_array_2d(X, name="X")
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_function(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.decision_function(X), axis=1).astype(np.int64)
