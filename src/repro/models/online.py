"""Online (incremental) logistic regression — the Vowpal-Wabbit stand-in.

The FROTE supplement approximates the expensive black-box retraining with
online learning: approximate the current model with a parametric model, then
update it per generated instance instead of retraining from scratch.  This
module provides that proxy: softmax regression trained by AdaGrad SGD with
``partial_fit`` support.
"""

from __future__ import annotations

import numpy as np

from repro.models.logistic import softmax
from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import (
    check_array_1d,
    check_array_2d,
    check_fit_inputs,
    check_labels,
    check_predict_input,
)


class OnlineLogisticRegression:
    """Softmax regression trained incrementally with AdaGrad.

    Parameters
    ----------
    learning_rate:
        Base step size; per-coordinate steps adapt as
        ``lr / sqrt(accumulated_grad_sq + eps)``.
    l2:
        L2 penalty weight applied per update.
    epochs:
        Passes over the data in :meth:`fit` (``partial_fit`` always does one).
    shuffle:
        Shuffle sample order per epoch in :meth:`fit`.
    """

    #: Partial-refit protocol: an accepted batch *continues online
    #: training* (one deterministic AdaGrad pass) instead of refitting
    #: from scratch — the FROTE supplement's online approximation.  See
    #: :meth:`partial_update` for the exactness contract.
    supports_partial_update = True

    def __init__(
        self,
        learning_rate: float = 0.5,
        *,
        l2: float = 1e-4,
        epochs: int = 5,
        batch_size: int = 32,
        shuffle: bool = True,
        random_state: RandomState = 0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.l2 = l2
        self.epochs = epochs
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.random_state = random_state
        self.W_: np.ndarray | None = None  # (n_features + 1, n_classes), last row bias
        self._grad_sq: np.ndarray | None = None
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def _ensure_initialized(self, n_features: int, n_classes: int) -> None:
        if self.W_ is None:
            self.n_classes_ = n_classes
            self.n_features_in_ = n_features
            self.W_ = np.zeros((n_features + 1, n_classes))
            self._grad_sq = np.zeros_like(self.W_)
        elif self.W_.shape != (n_features + 1, n_classes):
            raise ValueError(
                f"model initialized for shape {self.W_.shape}, "
                f"got {(n_features + 1, n_classes)}"
            )

    def _step(self, Xb: np.ndarray, yb: np.ndarray) -> None:
        assert self.W_ is not None and self._grad_sq is not None
        assert self.n_classes_ is not None
        nb = Xb.shape[0]
        Xa = np.hstack([Xb, np.ones((nb, 1))])
        P = softmax(Xa @ self.W_)
        Y = np.zeros_like(P)
        Y[np.arange(nb), yb] = 1.0
        grad = Xa.T @ (P - Y) / nb + self.l2 * self.W_
        self._grad_sq += grad * grad
        self.W_ -= self.learning_rate * grad / np.sqrt(self._grad_sq + 1e-8)

    # ------------------------------------------------------------------ #
    def partial_fit(
        self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None
    ) -> "OnlineLogisticRegression":
        """One incremental pass over ``(X, y)`` in mini-batches."""
        X = check_array_2d(X, name="X")
        y = check_array_1d(y, name="y", dtype=np.int64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if n_classes is None:
            n_classes = self.n_classes_ or int(y.max()) + 1
        check_labels(y, n_classes)
        self._ensure_initialized(X.shape[1], n_classes)
        for start in range(0, X.shape[0], self.batch_size):
            sl = slice(start, start + self.batch_size)
            self._step(X[sl], y[sl])
        return self

    def fit(
        self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None
    ) -> "OnlineLogisticRegression":
        """Multi-epoch SGD from scratch (resets any prior state)."""
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="online logistic regression")
        self.W_ = None
        self._ensure_initialized(X.shape[1], n_classes)
        rng = check_random_state(self.random_state)
        for _ in range(self.epochs):
            order = rng.permutation(X.shape[0]) if self.shuffle else np.arange(X.shape[0])
            self.partial_fit(X[order], y[order], n_classes=n_classes)
        return self

    # ------------------------------------------------------------------ #
    # Incremental refits (the engine's opt-in `incremental=True` path).
    def partial_update(
        self, X_new: np.ndarray, y_new: np.ndarray
    ) -> "OnlineLogisticRegression":
        """Continue online training on the appended rows, in place.

        **Exactness contract.**  ``partial_update(X, y)`` is bit-identical
        to ``partial_fit(X, y)`` on the same fitted state: one
        mini-batched AdaGrad pass over the rows *in the given order* —
        deterministic, no shuffling, no RNG consumed.  Unlike
        :meth:`KNeighborsClassifier.partial_update` (exact refit) or
        :meth:`GaussianNB.partial_update` (exact moment merge), it is
        **not** equivalent to ``fit`` on the concatenated data: SGD is
        path-dependent, so weights depend on arrival order and epoch
        count.  This is precisely the FROTE supplement's online-learning
        approximation — fold each accepted batch into the running model
        instead of retraining — and the engine's delta path reproduces
        the *online* training trajectory exactly, batch for batch.

        Parameters
        ----------
        X_new : ndarray of shape (n_new, n_features)
            Appended (encoded) feature rows.
        y_new : ndarray of shape (n_new,)
            Their labels (codes within the fitted ``n_classes_``).
        """
        if self.W_ is None or self.n_classes_ is None:
            raise RuntimeError("OnlineLogisticRegression is not fitted")
        return self.partial_fit(X_new, y_new, n_classes=self.n_classes_)

    def checkpoint(self):
        """State token — copies of ``(W_, _grad_sq)`` — for :meth:`rollback`."""
        if self.W_ is None or self._grad_sq is None:
            raise RuntimeError("OnlineLogisticRegression is not fitted")
        return (self.W_.copy(), self._grad_sq.copy())

    def rollback(self, token) -> None:
        """Restore the state captured by :meth:`checkpoint`.

        Copies the token's arrays (updates mutate ``_grad_sq`` in place),
        so one token survives any number of rollbacks.
        """
        W, grad_sq = token
        self.W_ = W.copy()
        self._grad_sq = grad_sq.copy()

    def clone_state(self) -> "OnlineLogisticRegression":
        """Deep copy of the fitted state (for what-if updates)."""
        c = OnlineLogisticRegression(
            self.learning_rate,
            l2=self.l2,
            epochs=self.epochs,
            batch_size=self.batch_size,
            shuffle=self.shuffle,
            random_state=self.random_state,
        )
        if self.W_ is not None:
            c.W_ = self.W_.copy()
            c._grad_sq = self._grad_sq.copy() if self._grad_sq is not None else None
            c.n_classes_ = self.n_classes_
            c.n_features_in_ = self.n_features_in_
        return c

    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.W_ is None:
            raise RuntimeError("OnlineLogisticRegression is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        Xa = np.hstack([X, np.ones((X.shape[0], 1))])
        return softmax(Xa @ self.W_)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
