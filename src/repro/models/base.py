"""Classifier protocol and the table-level training algorithm wrapper.

FROTE treats the training algorithm as a black box (paper §1): anything that
maps a dataset to a model with ``predict``.  This module defines:

* :class:`MatrixClassifier` — the protocol all from-scratch estimators in
  :mod:`repro.models` implement (``fit(X, y, n_classes)`` on float matrices).
* :class:`TableModel` — pairs a feature encoder with a matrix classifier so
  the rest of the library only ever deals with :class:`~repro.data.Table` /
  :class:`~repro.data.Dataset` objects.
* :func:`make_algorithm` — builds the ``algorithm: Dataset -> model``
  callable that FROTE consumes.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.data.dataset import Dataset
from repro.data.encoding import TabularEncoder
from repro.data.table import Table


@runtime_checkable
class MatrixClassifier(Protocol):
    """Minimal estimator interface over dense float matrices."""

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int) -> "MatrixClassifier":
        ...

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        ...


def predict_from_proba(proba: np.ndarray) -> np.ndarray:
    """Argmax decision rule shared by every estimator."""
    return np.argmax(proba, axis=1).astype(np.int64)


class TableModel:
    """A trained classifier over tables: encoder + matrix estimator.

    Degenerate training sets (a single class present) fall back to a
    constant predictor, so FROTE never crashes on extreme splits.

    Parameters
    ----------
    estimator:
        An unfitted :class:`MatrixClassifier`.
    standardize:
        Standardize numeric features in the encoder (linear models want
        this; trees are invariant to it).
    """

    def __init__(self, estimator: MatrixClassifier, *, standardize: bool = True) -> None:
        self.estimator = estimator
        self.standardize = standardize
        self.encoder_: TabularEncoder | None = None
        self.n_classes_: int | None = None
        self._constant_class: int | None = None

    def fit(self, dataset: Dataset) -> "TableModel":
        self.n_classes_ = dataset.n_classes
        self.encoder_ = TabularEncoder(standardize=self.standardize).fit(dataset.X)
        present = np.unique(dataset.y)
        if present.size <= 1:
            self._constant_class = int(present[0]) if present.size else 0
            return self
        self._constant_class = None
        X = self.encoder_.transform(dataset.X)
        self.estimator.fit(X, dataset.y, n_classes=dataset.n_classes)
        return self

    # ------------------------------------------------------------------ #
    # Incremental refits (the engine's opt-in `incremental=True` path).
    @property
    def supports_partial_update(self) -> bool:
        """Whether :meth:`partial_update` is an exact delta shortcut.

        "Exact" in the estimator's own contract: a refit-equivalent for
        memory/moment models (KNN, GaussianNB), an exact *online-training
        continuation* for SGD models (``OnlineLogisticRegression`` —
        the supplement's approximation; see its ``partial_update``).

        Three conditions: the estimator implements the partial-update
        protocol (``supports_partial_update`` + ``partial_update`` +
        ``checkpoint``/``rollback``); the encoder holds no standardization
        statistics (scaler means/stds are dataset-global, so any appended
        row would change every encoded row — a delta cannot be exact);
        and the model is not in the degenerate constant-class fallback.
        """
        return (
            self.encoder_ is not None
            and self._constant_class is None
            and getattr(self.encoder_, "_scaler", None) is None
            and getattr(self.estimator, "supports_partial_update", False)
        )

    def partial_update(self, delta: Dataset) -> "TableModel":
        """Refit in O(batch) by folding ``delta``'s rows into the estimator.

        Only valid when :attr:`supports_partial_update` is true; the
        encoder (vocabulary-driven, no fitted statistics) transforms the
        appended rows exactly as a refit would, and the estimator appends
        them to its training state in place.
        """
        if not self.supports_partial_update:
            raise RuntimeError(
                "this TableModel cannot partial-update; check "
                "supports_partial_update and fall back to a full fit"
            )
        X = self.encoder_.transform(delta.X)
        self.estimator.partial_update(X, delta.y)
        return self

    def checkpoint(self):
        """Estimator state token for :meth:`rollback` (rejected candidates)."""
        return self.estimator.checkpoint()

    def rollback(self, token) -> None:
        """Undo every :meth:`partial_update` since ``token``."""
        self.estimator.rollback(token)

    def predict_proba(self, table: Table) -> np.ndarray:
        """Class probabilities per row.

        Sharded tables are predicted in shard-aligned row blocks via
        :meth:`~repro.data.encoding.TabularEncoder.iter_transform_blocks`
        — prediction is row-independent, so only one encoded block plus
        the ``(n, n_classes)`` output is ever resident, never the full
        ``(n, n_features)`` matrix.  Caveat (shared with the incremental
        path, see ``docs/architecture.md``): estimators whose forward pass
        runs through BLAS matmuls are not guaranteed *bitwise*-identical
        between blocked and whole-matrix evaluation.  Logistic regression's
        probabilities may differ in the last bits.  KNN's squared distances
        (``sq_euclidean``'s ``A @ B.T``) may too, so its votes change only
        where two neighbours tie within that rounding.  Elementwise
        estimators (GaussianNB) are bitwise-identical.
        """
        if self.encoder_ is None or self.n_classes_ is None:
            raise RuntimeError("TableModel is not fitted")
        if self._constant_class is not None:
            proba = np.zeros((table.n_rows, self.n_classes_))
            proba[:, self._constant_class] = 1.0
            return proba
        if getattr(table, "shard_rows", None) is not None:
            proba = np.empty((table.n_rows, self.n_classes_), dtype=np.float64)
            for start, stop, X in self.encoder_.iter_transform_blocks(table):
                proba[start:stop] = self.estimator.predict_proba(X)
            return proba
        return self.estimator.predict_proba(self.encoder_.transform(table))

    def predict(self, table: Table) -> np.ndarray:
        return predict_from_proba(self.predict_proba(table))


# The black-box contract of FROTE: dataset in, trained model out.
TrainingAlgorithm = Callable[[Dataset], TableModel]


def make_algorithm(
    estimator_factory: Callable[[], MatrixClassifier],
    *,
    standardize: bool = True,
    warm_start: bool = False,
) -> TrainingAlgorithm:
    """Wrap an estimator factory into a FROTE training algorithm.

    Each invocation builds a fresh estimator so retraining never leaks state
    between FROTE iterations.

    With ``warm_start=True``, estimators exposing ``warm_start_from(coef,
    intercept)`` (batch LR) have each refit's optimizer seeded with the
    previous fit's coefficients — the fresh-estimator contract is kept
    (only a *copy* of the coefficients crosses fits, so a rejected
    candidate's fit can never mutate the retained model), but the
    optimizer starts near the previous optimum instead of at zero.  The
    FROTE loop's successive training sets differ by one small batch, so
    the iterate path shortens substantially (pinned by
    ``tests/models/test_warm_start.py``); because the iterate *path*
    changes, coefficient bits may differ from a cold fit within ``tol``.
    Off by default — the parity-pinned default path always cold-starts.

    Example
    -------
    >>> from repro.models import LogisticRegression, make_algorithm
    >>> algorithm = make_algorithm(lambda: LogisticRegression(max_iter=500))
    >>> model = algorithm(train_dataset)  # doctest: +SKIP
    """

    last_fit: dict[str, np.ndarray] = {}

    def algorithm(dataset: Dataset) -> TableModel:
        estimator = estimator_factory()
        if warm_start and last_fit and hasattr(estimator, "warm_start_from"):
            estimator.warm_start_from(last_fit["coef"], last_fit["intercept"])
        model = TableModel(estimator, standardize=standardize).fit(dataset)
        if (
            warm_start
            and getattr(estimator, "coef_", None) is not None
            and getattr(estimator, "intercept_", None) is not None
        ):
            last_fit["coef"] = estimator.coef_.copy()
            last_fit["intercept"] = estimator.intercept_.copy()
        return model

    return algorithm
