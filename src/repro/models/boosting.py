"""Histogram-based gradient boosting classifier (LightGBM substitute).

Implements the core LightGBM recipe the paper's third model relies on:

* features quantile-binned once up front (``max_bins`` histogram bins);
* regression trees grown **leaf-wise** (best-gain-first) on first- and
  second-order gradients (Newton boosting);
* split gain ``G_L^2/(H_L+λ) + G_R^2/(H_R+λ) - G^2/(H+λ)``;
* logistic loss for binary problems, softmax (one tree per class per
  round) for multiclass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.models.logistic import softmax
from repro.models.tree import _leaf_walk
from repro.utils.validation import check_fit_inputs, check_predict_input


class _Binner:
    """Quantile binning of float features into integer histogram bins."""

    def __init__(self, max_bins: int = 255) -> None:
        if not 2 <= max_bins <= 255:
            raise ValueError(f"max_bins must be in [2, 255], got {max_bins}")
        self.max_bins = max_bins
        self.edges_: list[np.ndarray] | None = None

    def fit(self, X: np.ndarray) -> "_Binner":
        edges = []
        for f in range(X.shape[1]):
            col = X[:, f]
            qs = np.quantile(col, np.linspace(0, 1, self.max_bins + 1)[1:-1])
            edges.append(np.unique(qs))
        self.edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.edges_ is None:
            raise RuntimeError("_Binner is not fitted")
        out = np.empty(X.shape, dtype=np.int32)
        for f, e in enumerate(self.edges_):
            out[:, f] = np.searchsorted(e, X[:, f], side="right")
        return out

    def n_bins(self, f: int) -> int:
        assert self.edges_ is not None
        return len(self.edges_[f]) + 1


@dataclass(frozen=True)
class _HistTree:
    """A regression tree on bin codes as flat node arrays, laid out as a
    :class:`~repro.models.tree.DecisionTreeClassifier`'s: node ``j`` sends
    a row right where its code of ``feature[j]`` exceeds
    ``bin_threshold[j]``, and ``value[j]`` is a leaf's value (0.0 at a
    split)."""

    feature: np.ndarray
    bin_threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    depth: int

    def predict_binned(self, B: np.ndarray) -> np.ndarray:
        row_base = np.arange(B.shape[0]) * B.shape[1]
        leaves = _leaf_walk(
            B.ravel(), row_base, self.feature, self.bin_threshold, self.children, self.depth
        )
        return self.value.take(leaves)


class _HistTreeBuilder:
    """Leaf-wise tree growth on (gradient, hessian) targets."""

    def __init__(
        self,
        binner: _Binner,
        *,
        max_leaves: int,
        max_depth: int | None,
        min_child_samples: int,
        reg_lambda: float,
        min_gain: float,
    ) -> None:
        self.binner = binner
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_child_samples = min_child_samples
        self.reg_lambda = reg_lambda
        self.min_gain = min_gain

    def best_split(
        self, B: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray
    ) -> tuple[float, int, int]:
        """Return (gain, feature, bin_threshold) for the node at ``idx``."""
        lam = self.reg_lambda
        G, H = g[idx].sum(), h[idx].sum()
        parent = G * G / (H + lam)
        best = (-np.inf, -1, -1)
        for f in range(B.shape[1]):
            nb = self.binner.n_bins(f)
            if nb < 2:
                continue
            bins_f = B[idx, f]
            hist_g = np.bincount(bins_f, weights=g[idx], minlength=nb)
            hist_h = np.bincount(bins_f, weights=h[idx], minlength=nb)
            hist_n = np.bincount(bins_f, minlength=nb)
            GL = np.cumsum(hist_g)[:-1]
            HL = np.cumsum(hist_h)[:-1]
            NL = np.cumsum(hist_n)[:-1]
            GR, HR, NR = G - GL, H - HL, idx.size - NL
            valid = (NL >= self.min_child_samples) & (NR >= self.min_child_samples)
            if not np.any(valid):
                continue
            gain = GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent
            gain[~valid] = -np.inf
            b = int(np.argmax(gain))
            if gain[b] > best[0]:
                best = (float(gain[b]), f, b)
        return best

    def build(self, B: np.ndarray, g: np.ndarray, h: np.ndarray) -> _HistTree:
        lam = self.reg_lambda

        def leaf_value(idx: np.ndarray) -> float:
            return float(-g[idx].sum() / (h[idx].sum() + lam))

        # Node arrays (see _HistTree); every node starts as a leaf that
        # loops to itself.
        feature: list[int] = []
        bin_threshold: list[int] = []
        children: list[int] = []
        value: list[float] = []
        depth_reached = 0

        def add_leaf(idx: np.ndarray) -> int:
            node_id = len(value)
            feature.append(0)
            bin_threshold.append(0)
            children.extend((node_id, node_id))
            value.append(leaf_value(idx))
            return node_id

        def tree() -> _HistTree:
            return _HistTree(
                np.array(feature, dtype=np.intp),
                np.array(bin_threshold, dtype=np.intp),
                np.array(children, dtype=np.intp),
                np.array(value, dtype=np.float64),
                depth_reached,
            )

        root_idx = np.arange(B.shape[0], dtype=np.intp)
        add_leaf(root_idx)
        if root_idx.size < 2 * self.min_child_samples:
            return tree()

        # Leaf-wise growth: a heap of candidate splits keyed by -gain.
        heap: list[tuple[float, int, int, int, int, np.ndarray]] = []
        counter = 0  # tiebreaker so ndarray never gets compared

        def push(node_id: int, idx: np.ndarray, depth: int) -> None:
            nonlocal counter
            if self.max_depth is not None and depth >= self.max_depth:
                return
            if idx.size < 2 * self.min_child_samples:
                return
            gain, f, b = self.best_split(B, g, h, idx)
            if gain > self.min_gain:
                heapq.heappush(heap, (-gain, counter, node_id, f, b, idx, depth))
                counter += 1

        push(0, root_idx, 0)
        n_leaves = 1
        while heap and n_leaves < self.max_leaves:
            _, _, node_id, f, b, idx, depth = heapq.heappop(heap)
            go_left = B[idx, f] <= b
            left_idx, right_idx = idx[go_left], idx[~go_left]
            left_id = add_leaf(left_idx)
            right_id = add_leaf(right_idx)
            feature[node_id], bin_threshold[node_id] = f, b
            children[2 * node_id : 2 * node_id + 2] = left_id, right_id
            value[node_id] = 0.0
            depth_reached = max(depth_reached, depth + 1)
            n_leaves += 1
            push(left_id, left_idx, depth + 1)
            push(right_id, right_idx, depth + 1)
        return tree()


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class GradientBoostingClassifier:
    """Newton-boosted histogram GBDT with leaf-wise trees.

    Parameters
    ----------
    n_estimators:
        Boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's leaf values.
    max_leaves / max_depth / min_child_samples / reg_lambda:
        Tree growth controls (LightGBM-style defaults).
    max_bins:
        Histogram resolution.
    """

    #: The tree grower (a class attribute, so a reference grower can stand in).
    _tree_builder = _HistTreeBuilder

    def __init__(
        self,
        n_estimators: int = 60,
        *,
        learning_rate: float = 0.1,
        max_leaves: int = 31,
        max_depth: int | None = None,
        min_child_samples: int = 20,
        reg_lambda: float = 1.0,
        max_bins: int = 255,
        min_gain: float = 1e-12,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_child_samples = min_child_samples
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins
        self.min_gain = min_gain
        self.binner_: _Binner | None = None
        self.trees_: list[list[_HistTree]] = []  # [round][class]
        self.base_score_: np.ndarray | None = None
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "GradientBoostingClassifier":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="gradient boosting model")
        if n_classes < 2:
            raise ValueError("need at least 2 classes")
        self.n_classes_ = n_classes
        self.n_features_in_ = X.shape[1]
        n = X.shape[0]
        self.binner_ = _Binner(self.max_bins).fit(X)
        B = self.binner_.transform(X)
        builder = self._tree_builder(
            self.binner_,
            max_leaves=self.max_leaves,
            max_depth=self.max_depth,
            min_child_samples=min(self.min_child_samples, max(1, n // 10)),
            reg_lambda=self.reg_lambda,
            min_gain=self.min_gain,
        )
        self.trees_ = []
        if n_classes == 2:
            pos_rate = np.clip(y.mean(), 1e-6, 1 - 1e-6)
            self.base_score_ = np.array([np.log(pos_rate / (1 - pos_rate))])
            F = np.full(n, self.base_score_[0])
            y_f = y.astype(np.float64)
            for _ in range(self.n_estimators):
                p = _sigmoid(F)
                g = p - y_f
                h = np.maximum(p * (1 - p), 1e-12)
                tree = builder.build(B, g, h)
                F += self.learning_rate * tree.predict_binned(B)
                self.trees_.append([tree])
        else:
            prior = np.bincount(y, minlength=n_classes) / n
            self.base_score_ = np.log(np.clip(prior, 1e-6, None))
            F = np.tile(self.base_score_, (n, 1))
            Y = np.zeros((n, n_classes))
            Y[np.arange(n), y] = 1.0
            for _ in range(self.n_estimators):
                P = softmax(F)
                round_trees: list[_HistTree] = []
                for c in range(n_classes):
                    g = P[:, c] - Y[:, c]
                    h = np.maximum(P[:, c] * (1 - P[:, c]), 1e-12)
                    tree = builder.build(B, g, h)
                    F[:, c] += self.learning_rate * tree.predict_binned(B)
                    round_trees.append(tree)
                self.trees_.append(round_trees)
        return self

    # ------------------------------------------------------------------ #
    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.binner_ is None or self.base_score_ is None or self.n_classes_ is None:
            raise RuntimeError("GradientBoostingClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        B = self.binner_.transform(X)
        if self.n_classes_ == 2:
            F = np.full(X.shape[0], self.base_score_[0])
            for (tree,) in self.trees_:
                F += self.learning_rate * tree.predict_binned(B)
            return F
        F = np.tile(self.base_score_, (X.shape[0], 1))
        for round_trees in self.trees_:
            for c, tree in enumerate(round_trees):
                F[:, c] += self.learning_rate * tree.predict_binned(B)
        return F

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        F = self.decision_function(X)
        if self.n_classes_ == 2:
            p1 = _sigmoid(F)
            return np.column_stack([1 - p1, p1])
        return softmax(F)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
