"""Multinomial logistic regression trained with L-BFGS.

Re-implements the paper's scikit-learn ``LogisticRegression(max_iter=500)``
configuration: softmax cross-entropy with L2 regularization (C = 1.0,
intercept unpenalized), optimized by L-BFGS-B through
:func:`repro.utils.solvers.lbfgsb`, which drives SciPy's compiled
``setulb`` exactly as ``scipy.optimize.minimize(method="L-BFGS-B")``
does, to the same bits.

The objective runs class-major.  The logits are written once into a
``(classes, rows)`` buffer, so every step between the two BLAS products
is a full-length row operation instead of a loop whose inner dimension
is the two-to-a-few-element class axis.  One shifted exponential is
taken per evaluation and reused, normalized in place, as the gradient.
Every step adds in the order NumPy's plain row-major reductions do, so
every fitted bit is the bit they give:

* The row max is ``Zt.max(axis=0)``.  Max is exact, so any class count
  keeps the bits.
* The row sums are ``Et.sum(axis=0)`` below eight classes.  A reduction
  over axis 0 of a C-ordered array adds the class rows one after another,
  as NumPy does for a row of fewer than eight terms.  From eight NumPy
  sums a row pairwise, so there the sums come from a C-ordered
  ``(rows, classes)`` copy and ``.sum(axis=1)``.  The cutoff is NumPy's,
  not a tuning knob.
* The intercept gradient is ``np.cumsum`` along each class row: element
  by element, the order of the axis-0 reduction of the row-major
  gradient.  ``Et.sum(axis=1)`` would sum pairwise and change the bits.
* The label logits are a flat ``take`` and the one-hot subtraction is a
  full-array ``Et -= Yt``: subtracting ``+0.0`` leaves every double
  unchanged.

The two BLAS products keep their operands' memory order, because their
bits depend on it.  The logits come from ``X @ W`` and are transposed
after it, while the bias is added.  The gradient's ``X.T @ E`` gets a
C-ordered ``(rows, classes)`` copy of ``Et.T``.  Handing it the
F-ordered view ``Et.T`` itself is the C-order trap: that is a different
BLAS call, and it changes gradient bits (seen with a single feature and
a handful of rows).  The copy is one strided column write per class;
NumPy's own transposed copy walks the rows, a few elements at a time,
and costs several times more at a small class count.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.utils.solvers import lbfgsb
from repro.utils.validation import check_fit_inputs, check_predict_input


def softmax(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability.

    The row max is a running ``np.maximum`` over the columns.  Below eight
    columns the row sums are a column loop, which adds in the order
    ``E.sum(axis=1)`` does; from eight NumPy sums pairwise, so the
    reduction stays.
    """
    Zmax = Z[:, 0].copy()
    for c in range(1, Z.shape[1]):
        np.maximum(Zmax, Z[:, c], out=Zmax)
    E = Z - Zmax[:, None]
    np.exp(E, out=E)
    if Z.shape[1] >= 8:
        S = E.sum(axis=1)
    else:
        S = E[:, 0].copy()
        for c in range(1, Z.shape[1]):
            S += E[:, c]
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
        w, self.n_iter_ = lbfgsb(objective, w0, max_iter=self.max_iter, gtol=self.tol)
        self.coef_ = w[: d * n_classes].reshape(d, n_classes)
        self.intercept_ = w[d * n_classes :]
        return self

    @staticmethod
    def _objective(
        X: np.ndarray, y: np.ndarray, n_classes: int, lam: float
    ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        """Loss and gradient of the flat parameters ``[W.ravel(), b]``."""
        n, d = X.shape
        # Flat positions of the label logits in the class-major buffers,
        # and the one-hot labels.
        lab = y * n + np.arange(n)
        Yt = np.zeros((n_classes, n))
        Yt.ravel()[lab] = 1.0
        # The logits, then their shifted exponential, then the gradient.
        Zt = np.empty((n_classes, n))
        E = np.empty((n, n_classes))

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat[: d * n_classes].reshape(d, n_classes)
            b = w_flat[d * n_classes :]
            np.add((X @ W).T, b[:, None], out=Zt)
            z_lab = Zt.ravel().take(lab)
            Zmax = Zt.max(axis=0)
            Et = np.subtract(Zt, Zmax, out=Zt)
            np.exp(Et, out=Et)
            if n_classes >= 8:
                # Pairwise row sums need the rows contiguous.
                for k in range(n_classes):
                    E[:, k] = Et[k]
                S = E.sum(axis=1)
            else:
                S = Et.sum(axis=0)
            ll = (z_lab - (Zmax + np.log(S))).sum()
            # Et becomes the softmax minus the one-hot labels.
            Et /= S
            Et -= Yt
            # BLAS gets a C-ordered copy of Et.T (see the module notes).
            for k in range(n_classes):
                E[:, k] = Et[k]
            grad_W = X.T @ E / n + 2.0 * lam * W
            grad_b = np.cumsum(Et, axis=1)[:, -1] / n
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
