"""K-nearest-neighbours classifier built on the neighbours substrate.

A memory-based fifth model family for the model-agnostic ablations: FROTE
edits it like any other (its "decision boundary" IS the training data, so
augmentation moves it directly).
"""

from __future__ import annotations

import numpy as np

from repro.data.builder import GrowableArray
from repro.neighbors import BruteKNN
from repro.utils.validation import check_array_1d, check_array_2d


class KNeighborsClassifier:
    """Majority-vote KNN over the exact brute-force index.

    Parameters
    ----------
    k:
        Number of neighbours.
    algorithm:
        ``"ball_tree"`` (default, the paper's neighbour config) or
        ``"brute"``.  Both build the same exact index,
        :class:`~repro.neighbors.BruteKNN`; ``"ball_tree"`` is an alias
        kept for existing callers.
    weights:
        ``"uniform"`` or ``"distance"`` (inverse-distance vote weights).
    """

    #: Partial-refit protocol: an accepted batch updates the training set
    #: in place (index append + label append) instead of refitting — see
    #: :meth:`partial_update`.
    supports_partial_update = True

    def __init__(
        self,
        k: int = 5,
        *,
        algorithm: str = "ball_tree",
        weights: str = "uniform",
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if weights not in ("uniform", "distance"):
            raise ValueError(f"weights must be 'uniform' or 'distance', got {weights!r}")
        if algorithm not in ("ball_tree", "brute"):
            raise ValueError(f"algorithm must be 'ball_tree' or 'brute', got {algorithm!r}")
        self.k = k
        self.algorithm = algorithm
        self.weights = weights
        self._index: BruteKNN | None = None
        self._y: GrowableArray | None = None
        self.n_classes_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "KNeighborsClassifier":
        X = check_array_2d(X, name="X")
        y = check_array_1d(y, name="y", dtype=np.int64)
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if n_classes is None:
            n_classes = int(y.max()) + 1
        self.n_classes_ = n_classes
        self._index = BruteKNN().fit(X)
        self._y = GrowableArray(np.int64, initial=y)
        return self

    # ------------------------------------------------------------------ #
    # Incremental refits: the "decision boundary" of a KNN IS its training
    # data, so appending rows to the index and the label store is an
    # *exact* refit in O(batch) amortized.
    def partial_update(self, X_new: np.ndarray, y_new: np.ndarray) -> "KNeighborsClassifier":
        """Add training rows in place; equivalent to refitting on the
        concatenated data (queries are answered against the exact same
        reference set — see :meth:`BruteKNN.append`).

        Parameters
        ----------
        X_new : ndarray of shape (n_new, n_features)
            Appended feature rows.
        y_new : ndarray of shape (n_new,)
            Their labels (codes within the fitted ``n_classes_``).
        """
        if self._index is None or self._y is None or self.n_classes_ is None:
            raise RuntimeError("KNeighborsClassifier is not fitted")
        X_new = check_array_2d(X_new, name="X_new")
        y_new = check_array_1d(y_new, name="y_new", dtype=np.int64)
        if X_new.shape[0] != y_new.shape[0]:
            raise ValueError("X_new and y_new have different numbers of rows")
        if y_new.size and (y_new.min() < 0 or y_new.max() >= self.n_classes_):
            raise ValueError(
                f"y_new has codes outside [0, {self.n_classes_})"
            )
        self._index.append(X_new)
        self._y.append(y_new)
        return self

    def checkpoint(self):
        """Cheap state token; :meth:`rollback` undoes later partial updates."""
        if self._index is None or self._y is None:
            raise RuntimeError("KNeighborsClassifier is not fitted")
        return (self._index.checkpoint(), self._y.n)

    def rollback(self, token) -> None:
        """Undo every :meth:`partial_update` since ``token`` in O(1)."""
        if self._index is None or self._y is None:
            raise RuntimeError("KNeighborsClassifier is not fitted")
        index_token, n_labels = token
        self._index.rollback(index_token)
        self._y.truncate(n_labels)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self._index is None or self._y is None or self.n_classes_ is None:
            raise RuntimeError("KNeighborsClassifier is not fitted")
        X = check_array_2d(X, name="X")
        y = self._y.view()
        k_eff = min(self.k, y.shape[0])
        dists, idx = self._index.kneighbors(X, k_eff)
        labels = y[idx]
        proba = np.zeros((X.shape[0], self.n_classes_))
        if self.weights == "uniform":
            w = np.ones_like(dists)
        else:
            w = 1.0 / np.maximum(dists, 1e-10)
        for c in range(self.n_classes_):
            proba[:, c] = np.where(labels == c, w, 0.0).sum(axis=1)
        proba /= proba.sum(axis=1, keepdims=True)
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
