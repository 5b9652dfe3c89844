"""CART decision tree classifier (gini / entropy) built from scratch.

The split search is a histogram search.  Each column of ``X`` is coded
once per fit as an index into its sorted distinct values (a random forest
codes its data once for all of its trees).  At a node, one sort of flat
(feature, code, class) keys counts the node's rows for every scanned
feature at once, into a histogram of the values present at the node;
its cost follows the node's rows, not the columns' distinct values.
Cumulative class counts within each feature give the left/right class
counts at every boundary between two adjacent present values, and the
impurity decrease of all candidates of all features is evaluated in one
pass.  Only boundaries between distinct values are scored, never the
rows between them.

The result is bit-identical to sorting each feature's values and scoring
every row position, the original search, which is kept as
:func:`repro.perf.seed_reference.seed_cart_best_split`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_array_2d, check_fit_inputs


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``a`` that differ from their predecessor."""
    mask = np.empty(a.size, dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


@dataclass
class _TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: int = -1  # child node ids
    right: int = -1
    proba: np.ndarray | None = None  # leaf class distribution


@dataclass(frozen=True)
class _BinnedX:
    """``X`` with every column coded by rank among its distinct values."""

    X: np.ndarray  # raw values: nodes route rows by comparing these
    codes: np.ndarray  # (d, n): codes[f, i] indexes values[f]
    values: tuple[np.ndarray, ...]  # sorted distinct values of each column
    n_bins: np.ndarray  # (d,): len(values[f])

    @classmethod
    def from_array(cls, X: np.ndarray) -> "_BinnedX":
        codes = np.empty((X.shape[1], X.shape[0]), dtype=np.intp)
        values = []
        for f in range(X.shape[1]):
            uniq, codes[f] = np.unique(X[:, f], return_inverse=True)
            values.append(uniq)
        n_bins = np.array([v.size for v in values], dtype=np.intp)
        return cls(X, codes, tuple(values), n_bins)


def _impurity_from_counts(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of distributions given as rows of class counts."""
    total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, counts / total, 0.0)
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    # entropy
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -(p * logp).sum(axis=-1)


class DecisionTreeClassifier:
    """Binary-split CART tree on dense float matrices.

    Parameters
    ----------
    max_depth:
        Depth cap (the paper uses ``max_depth=3`` inside its random forest).
        ``None`` grows until purity or the sample minimums bind.
    min_samples_split / min_samples_leaf:
        Standard pre-pruning controls.
    max_features:
        Number of features scanned per split: ``None`` (all), ``"sqrt"``,
        or an int.
    criterion:
        ``"gini"`` (default) or ``"entropy"``.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        *,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        criterion: str = "gini",
        random_state: RandomState = None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.criterion = criterion
        self.random_state = random_state
        self.nodes_: list[_TreeNode] = []
        self.n_classes_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "DecisionTreeClassifier":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="tree")
        rows = np.arange(X.shape[0], dtype=np.intp)
        return self._fit_binned(_BinnedX.from_array(X), y, n_classes, rows)

    def _fit_binned(
        self, data: _BinnedX, y: np.ndarray, n_classes: int, rows: np.ndarray
    ) -> "DecisionTreeClassifier":
        """Grow the tree on the rows ``rows`` of validated, binned data.

        ``rows`` may repeat a row (a bootstrap sample); a repeat counts as
        often as it appears, exactly as if the sample had been copied out.
        """
        self.n_classes_ = n_classes
        rng = check_random_state(self.random_state)
        self.nodes_ = []
        self._n_split_features = self._resolve_max_features(data.X.shape[1])
        self._build(data, y, rows, depth=0, rng=rng)
        return self

    def _resolve_max_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, (int, np.integer)):
            return int(np.clip(self.max_features, 1, d))
        raise ValueError(f"invalid max_features: {self.max_features!r}")

    def _leaf(self, y: np.ndarray) -> int:
        assert self.n_classes_ is not None
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        node = _TreeNode(proba=counts / counts.sum())
        self.nodes_.append(node)
        return len(self.nodes_) - 1

    def _build(
        self,
        data: _BinnedX,
        y: np.ndarray,
        idx: np.ndarray,
        *,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        y_node = y[idx]
        n = idx.size
        pure = np.all(y_node == y_node[0])
        depth_done = self.max_depth is not None and depth >= self.max_depth
        if pure or depth_done or n < self.min_samples_split:
            return self._leaf(y_node)

        feat, thr = self._best_split(data, y_node, idx, rng)
        if feat < 0:
            return self._leaf(y_node)

        node_id = len(self.nodes_)
        self.nodes_.append(_TreeNode(feature=feat, threshold=thr))
        # Route on the raw values, not the codes: a midpoint of two
        # adjacent floats can round onto the upper one.
        go_left = data.X[idx, feat] <= thr
        left_id = self._build(data, y, idx[go_left], depth=depth + 1, rng=rng)
        right_id = self._build(data, y, idx[~go_left], depth=depth + 1, rng=rng)
        self.nodes_[node_id].left = left_id
        self.nodes_[node_id].right = right_id
        return node_id

    def _best_split(
        self,
        data: _BinnedX,
        y_node: np.ndarray,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float]:
        """Return (feature, threshold) of the best split, or (-1, 0) if none."""
        c = self.n_classes_
        assert c is not None
        n = idx.size
        d = data.X.shape[1]
        features = (
            rng.choice(d, size=self._n_split_features, replace=False)
            if self._n_split_features < d
            else np.arange(d)
        )
        # Histogram bins: feature features[j] owns bins [starts[j], ends[j]),
        # one per distinct value; a key is bin * c + label.
        n_bins = data.n_bins[features]
        ends = np.cumsum(n_bins)
        starts = ends - n_bins
        node_codes = data.codes.take(features[:, None] * data.codes.shape[1] + idx)
        keys = ((node_codes + starts[:, None]) * c + y_node).ravel()
        # hist[i] counts the classes of present bin bins[i] (a value present
        # at the node).  Counting sorted keys costs the node's rows, not the
        # columns' distinct values, so deep nodes on many-valued columns
        # stay cheap.
        keys.sort()
        first = np.flatnonzero(_run_starts(keys))
        cells = keys[first]  # one per present (bin, class)
        cell_bins = cells // c
        new_bin = _run_starts(cell_bins)
        bins = cell_bins[new_bin]
        hist = np.zeros((bins.size, c), dtype=np.intp)
        run_lengths = np.append(first[1:], keys.size) - first
        hist[np.cumsum(new_bin) - 1, cells % c] = run_lengths
        seg = np.searchsorted(ends, bins, side="right")  # j of each bin
        # A boundary follows every present value but each feature's largest.
        cand = np.flatnonzero(seg[:-1] == seg[1:])
        if cand.size == 0:
            return -1, 0.0
        totals = np.bincount(y_node, minlength=c)
        # Cumulative counts run across features; each earlier feature
        # contributed the node's class totals once.
        left = np.cumsum(hist, axis=0)[cand] - seg[cand, None] * totals
        n_left = left.sum(axis=1)
        n_right = n - n_left
        # One impurity pass over every left side, right side and the parent.
        imp = _impurity_from_counts(
            np.concatenate((left, totals - left, totals[None, :])).astype(np.float64),
            self.criterion,
        )
        k = cand.size
        weighted = (n_left * imp[:k] + n_right * imp[k : 2 * k]) / n
        gain = imp[-1] - weighted
        gain[(n_left < self.min_samples_leaf) | (n_right < self.min_samples_leaf)] = -np.inf
        # Candidates run in the order of ``features`` and, within a feature,
        # by value, so the first maximum is the one a feature-by-feature scan
        # keeping only strict improvements would pick.
        best = int(np.argmax(gain))
        if gain[best] <= 1e-12:
            return -1, 0.0
        j = int(seg[cand[best]])
        values = data.values[int(features[j])]
        lo = values[bins[cand[best]] - starts[j]]
        hi = values[bins[cand[best] + 1] - starts[j]]
        # Midpoint threshold, matching CART convention.
        return int(features[j]), float((lo + hi) / 2.0)

    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.nodes_ or self.n_classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        X = check_array_2d(X, name="X")
        n = X.shape[0]
        out = np.zeros((n, self.n_classes_))
        # Iterative routing: frontier of (node_id, row indices).
        frontier = [(0, np.arange(n, dtype=np.intp))]
        while frontier:
            node_id, rows = frontier.pop()
            if rows.size == 0:
                continue
            node = self.nodes_[node_id]
            if node.feature < 0:
                out[rows] = node.proba
                continue
            go_left = X[rows, node.feature] <= node.threshold
            frontier.append((node.left, rows[go_left]))
            frontier.append((node.right, rows[~go_left]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes_)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self.nodes_:
            raise RuntimeError("DecisionTreeClassifier is not fitted")

        def walk(node_id: int) -> int:
            node = self.nodes_[node_id]
            if node.feature < 0:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(0)
