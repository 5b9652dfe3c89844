"""Random forest classifier built on :class:`~repro.models.tree.DecisionTreeClassifier`.

Matches the paper's configuration surface: scikit-learn defaults except
``max_depth=3``.  Bootstrap sampling plus per-split feature subsampling
(``max_features="sqrt"``), probabilities averaged across trees.
"""

from __future__ import annotations

import numpy as np

from repro.models.tree import DecisionTreeClassifier, _BinnedX, _check_tree_params, _grow
from repro.utils.rng import RandomState, check_random_state, spawn_rng
from repro.utils.validation import check_fit_inputs, check_predict_input


class RandomForestClassifier:
    """Bagged ensemble of CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth:
        Per-tree depth cap (paper uses 3).
    max_features:
        Features considered per split; default ``"sqrt"``.
    bootstrap:
        Sample the training set with replacement per tree.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        *,
        max_depth: int | None = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        criterion: str = "gini",
        bootstrap: bool = True,
        random_state: RandomState = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        _check_tree_params(max_depth, min_samples_split, min_samples_leaf, max_features, criterion)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "RandomForestClassifier":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="tree")
        self.n_classes_ = n_classes
        self.n_features_in_ = X.shape[1]
        rng = check_random_state(self.random_state)
        rngs = spawn_rng(rng, self.n_estimators)
        n = X.shape[0]
        # Each tree draws its sample, then its features, from its own stream.
        samples = [
            tree_rng.integers(0, n, size=n) if self.bootstrap else np.arange(n, dtype=np.intp)
            for tree_rng in rngs
        ]
        self.trees_ = [
            DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
                random_state=tree_rng,
            )
            for tree_rng in rngs
        ]
        # Code the columns once and grow every tree on a row sample of them.
        _grow(self.trees_, _BinnedX.from_array(X), y, n_classes, samples, rngs)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_ or self.n_classes_ is None:
            raise RuntimeError("RandomForestClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        Xf, row_base = X.ravel(), np.arange(X.shape[0]) * X.shape[1]
        # One walk per tree keeps the transients O(rows); the trees' leaf
        # rows add up in tree order.
        proba = np.zeros((X.shape[0], self.n_classes_))
        for tree in self.trees_:
            proba += tree._leaf_values(Xf, row_base)
        proba /= len(self.trees_)
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
