"""The seed repository's implementations of the optimized hot paths, preserved.

When an edit-loop hot path is rewritten for speed, the code it replaces is
moved here (modulo being standalone functions or subclasses) so that
``tests/perf/test_seed_parity.py`` can pin, under a fixed RNG, that the
new implementation reproduces the seed outputs **bit-for-bit** (the batch
code consumes the random stream in exactly the seed order).  Speed itself
is measured end to end by ``perfbench/``, not here.

The per-row Python loops of the sampling and neighbour paths are kept as
functions.  The CART tree is kept the same way: :func:`seed_cart_best_split` is the
per-feature argsort search that the histogram search in
:mod:`repro.models.tree` replaced, and :class:`SeedSplitTree` /
:class:`SeedSplitForest` grow trees with it, one node at a time, by the
recursive builder that the lockstep grower replaced.  Their trees are
lists of :class:`_TreeNode` objects, predicted by routing a frontier of
row sets down from the root, tree by tree: the walk that the
level-synchronous walk over flat node arrays replaced.  The gradient
boosting model's node lists and frontier walk are kept the same way, in
:class:`SeedHistTree`, grown by :class:`SeedHistTreeBuilder` inside
:class:`SeedFrontierBoosting` with its own copy of the per-feature split
search, :func:`seed_gbdt_best_split`.

The logistic-regression objective is kept the same way:
:class:`SeedObjectiveLR` fits with the seed objective (row-major logits,
a row max and row sums along axis 1, two ``exp`` passes, a copied softmax,
a one-hot label matrix and an axis-0 intercept sum) that
:class:`repro.models.LogisticRegression` replaced with a class-major one,
optimizes it with :func:`scipy.optimize.minimize` as the seed did (the
library drives SciPy's L-BFGS-B binding directly), and predicts through
:func:`seed_softmax`.

:func:`seed_encode` is the :class:`repro.data.TabularEncoder` transform
that built one matrix per column block and joined them with ``np.hstack``,
before the encoder filled one preallocated matrix.

Nothing here is used by the production edit loop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.data.encoding import TabularEncoder
from repro.data.table import Table
from repro.models.boosting import GradientBoostingClassifier, _HistTreeBuilder
from repro.models.forest import RandomForestClassifier
from repro.models.logistic import LogisticRegression
from repro.models.tree import DecisionTreeClassifier, _impurity_from_counts, _n_split_features
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.neighbors.brute import SELF_DISTANCE_TOL
from repro.rules.predicate import Predicate
from repro.sampling.interpolation import interpolate_numeric, majority_categorical
from repro.sampling.rule_generation import (
    NumericWindow,
    pick_categorical,
    sample_in_window,
)
from repro.utils.rng import check_random_state, spawn_rng
from repro.utils.validation import check_fit_inputs, check_predict_input


def seed_topk_from_dists(
    D: np.ndarray, k: int, *, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Seed top-k selection: per-row Python loop for ``exclude_self``."""
    n_q, n_x = D.shape
    budget = k + 1 if exclude_self else k
    k_eff = min(budget, n_x)
    if k_eff == 0:
        return np.zeros((n_q, 0)), np.zeros((n_q, 0), dtype=np.intp)
    part = np.argpartition(D, k_eff - 1, axis=1)[:, :k_eff]
    part_d = np.take_along_axis(D, part, axis=1)
    order = np.argsort(part_d, axis=1, kind="stable")
    idx = np.take_along_axis(part, order, axis=1)
    dist = np.take_along_axis(part_d, order, axis=1)
    if exclude_self:
        keep_idx = np.empty((n_q, min(k, max(k_eff - 1, 0))), dtype=np.intp)
        keep_dist = np.empty_like(keep_idx, dtype=np.float64)
        for r in range(n_q):
            row_idx, row_dist = idx[r], dist[r]
            if row_dist.size and row_dist[0] < SELF_DISTANCE_TOL:
                row_idx, row_dist = row_idx[1:], row_dist[1:]
            else:
                row_idx, row_dist = row_idx[: k_eff - 1], row_dist[: k_eff - 1]
            keep_idx[r, : row_idx.size] = row_idx[: keep_idx.shape[1]]
            keep_dist[r, : row_dist.size] = row_dist[: keep_idx.shape[1]]
        return keep_dist, keep_idx
    return dist[:, :k], idx[:, :k]


def seed_majority_batch(codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Seed SMOTE-NC categorical aggregation: one bincount per sample."""
    n = codes.shape[0]
    vals = np.empty(n, dtype=np.int64)
    for s in range(n):
        vals[s] = majority_categorical(codes[s], rng)
    return vals


def seed_sample_in_window_batch(
    window: NumericWindow,
    base_v: np.ndarray,
    nbr_v: np.ndarray,
    attr_range: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Seed constrained numeric generation: one scalar draw per sample."""
    n = base_v.shape[0]
    vals = np.empty(n)
    for s in range(n):
        vals[s] = sample_in_window(
            window, float(base_v[s]), float(nbr_v[s]), attr_range, rng
        )
    return vals


def seed_pick_categorical_batch(
    codes: np.ndarray,
    conditions: tuple[Predicate, ...],
    categories: tuple[str, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Seed constrained categorical generation: one sorted scan per sample."""
    n = codes.shape[0]
    vals = np.empty(n, dtype=np.int64)
    for s in range(n):
        vals[s] = pick_categorical(codes[s], conditions, categories, rng)
    return vals


def seed_smote_generate(
    table: Table,
    n_samples: int,
    *,
    k: int,
    rng: np.random.Generator,
    base_indices: np.ndarray | None = None,
) -> Table:
    """The seed ``SMOTE.generate``: per-sample loop over categorical columns.

    Neighbour search and numeric interpolation were already matrix ops in
    the seed; only the SMOTE-NC majority step looped per sample.
    """
    if table.n_rows < 2:
        raise ValueError("need at least 2 rows to interpolate")
    if base_indices is None:
        base_indices = np.arange(table.n_rows)
    base_indices = np.asarray(base_indices, dtype=np.intp)

    space = TableNeighborSpace().fit(table)
    E = space.encode(table)
    knn = BruteKNN(space.metric_).fit(E)
    k_eff = min(k, table.n_rows - 1)
    _, nbr_idx = knn.kneighbors(E[base_indices], k_eff, exclude_self=True)

    chosen_base = rng.integers(0, base_indices.size, size=n_samples)
    chosen_nbr_col = rng.integers(0, k_eff, size=n_samples)

    schema = table.schema
    columns: dict[str, np.ndarray] = {}
    b_rows = base_indices[chosen_base]
    j_rows = nbr_idx[chosen_base, chosen_nbr_col]
    omegas = rng.uniform(0.0, 1.0, size=n_samples)
    for spec in schema:
        col = table.column(spec.name)
        if spec.is_numeric:
            columns[spec.name] = interpolate_numeric(col[b_rows], col[j_rows], omegas)
        else:
            vals = np.empty(n_samples, dtype=np.int64)
            for s in range(n_samples):
                codes = col[nbr_idx[chosen_base[s]]]
                vals[s] = majority_categorical(codes, rng)
            columns[spec.name] = vals
    return Table(schema, columns, copy=False)


def seed_borderline_weights(
    cats: np.ndarray, weights: dict[str, float]
) -> np.ndarray:
    """Seed borderline weight mapping: per-row dict lookup."""
    return np.array([weights[c] for c in cats], dtype=np.float64)


def seed_cart_best_split(
    tree: DecisionTreeClassifier,
    X: np.ndarray,
    y_node: np.ndarray,
    idx: np.ndarray,
    rng: np.random.Generator,
) -> tuple[int, float]:
    """Seed CART split search: per feature, a stable argsort, a cumsum over
    the node's one-hot labels and the impurity of every sorted row."""
    assert tree.n_classes_ is not None
    n = idx.size
    d = X.shape[1]
    features = (
        rng.choice(d, size=tree._n_split_features, replace=False)
        if tree._n_split_features < d
        else np.arange(d)
    )
    onehot = np.zeros((n, tree.n_classes_))
    onehot[np.arange(n), y_node] = 1.0

    best_gain = 1e-12
    best_feat, best_thr = -1, 0.0
    parent_imp = _impurity_from_counts(onehot.sum(axis=0)[None, :], tree.criterion)[0]

    for f in features:
        x = X[idx, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        counts_sorted = onehot[order]
        left_counts = np.cumsum(counts_sorted, axis=0)[:-1]  # split after i
        total = left_counts[-1] + counts_sorted[-1]
        right_counts = total[None, :] - left_counts
        n_left = np.arange(1, n)
        n_right = n - n_left
        valid = (
            (xs[:-1] < xs[1:])
            & (n_left >= tree.min_samples_leaf)
            & (n_right >= tree.min_samples_leaf)
        )
        if not np.any(valid):
            continue
        imp_left = _impurity_from_counts(left_counts, tree.criterion)
        imp_right = _impurity_from_counts(right_counts, tree.criterion)
        weighted = (n_left * imp_left + n_right * imp_right) / n
        gain = parent_imp - weighted
        gain[~valid] = -np.inf
        best_pos = int(np.argmax(gain))
        if gain[best_pos] > best_gain:
            best_gain = float(gain[best_pos])
            best_feat = int(f)
            # Midpoint threshold, matching CART convention.
            best_thr = float((xs[best_pos] + xs[best_pos + 1]) / 2.0)
    return best_feat, best_thr


@dataclass
class _TreeNode:
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: int = -1  # child node ids
    right: int = -1
    proba: np.ndarray | None = None  # leaf class distribution


class SeedSplitTree(DecisionTreeClassifier):
    """A CART tree grown node by node, recursively, with the splits of
    :func:`seed_cart_best_split`, kept as a list of :class:`_TreeNode` and
    predicted by routing a frontier of row sets down from the root."""

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "SeedSplitTree":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="tree")
        return self._fit_rows(X, y, n_classes, np.arange(X.shape[0], dtype=np.intp))

    def _fit_rows(
        self, X: np.ndarray, y: np.ndarray, n_classes: int, rows: np.ndarray
    ) -> "SeedSplitTree":
        """Grow the tree on the rows ``rows`` (repeats allowed) of ``X``."""
        self.n_classes_ = n_classes
        self.n_features_in_ = X.shape[1]
        rng = check_random_state(self.random_state)
        self.nodes_ = []
        self._n_split_features = _n_split_features(self.max_features, X.shape[1])
        self._build(X, y, rows, depth=0, rng=rng)
        return self

    def _leaf(self, y: np.ndarray) -> int:
        assert self.n_classes_ is not None
        counts = np.bincount(y, minlength=self.n_classes_).astype(np.float64)
        self.nodes_.append(_TreeNode(proba=counts / counts.sum()))
        return len(self.nodes_) - 1

    def _build(
        self,
        X: np.ndarray,
        y: np.ndarray,
        idx: np.ndarray,
        *,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        y_node = y[idx]
        pure = np.all(y_node == y_node[0])
        depth_done = self.max_depth is not None and depth >= self.max_depth
        if pure or depth_done or idx.size < self.min_samples_split:
            return self._leaf(y_node)

        feat, thr = seed_cart_best_split(self, X, y_node, idx, rng)
        if feat < 0:
            return self._leaf(y_node)

        node_id = len(self.nodes_)
        self.nodes_.append(_TreeNode(feature=feat, threshold=thr))
        go_left = X[idx, feat] <= thr
        left_id = self._build(X, y, idx[go_left], depth=depth + 1, rng=rng)
        right_id = self._build(X, y, idx[~go_left], depth=depth + 1, rng=rng)
        self.nodes_[node_id].left = left_id
        self.nodes_[node_id].right = right_id
        return node_id

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.nodes_ or self.n_classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
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


class SeedSplitForest(RandomForestClassifier):
    """A random forest of :class:`SeedSplitTree` trees, grown one by one."""

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "SeedSplitForest":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="tree")
        self.n_classes_ = n_classes
        self.n_features_in_ = X.shape[1]
        rngs = spawn_rng(check_random_state(self.random_state), self.n_estimators)
        n = X.shape[0]
        self.trees_ = []
        for tree_rng in rngs:
            rows = tree_rng.integers(0, n, size=n) if self.bootstrap else np.arange(n, dtype=np.intp)
            tree = SeedSplitTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
                random_state=tree_rng,
            )
            self.trees_.append(tree._fit_rows(X, y, n_classes, rows))
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if not self.trees_ or self.n_classes_ is None:
            raise RuntimeError("RandomForestClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        proba = np.zeros((X.shape[0], self.n_classes_))
        for tree in self.trees_:
            proba += tree.predict_proba(X)
        proba /= len(self.trees_)
        return proba


@dataclass
class _SplitNode:
    feature: int
    bin_threshold: int
    left: "int"
    right: "int"


@dataclass
class SeedHistTree:
    """Flattened tree: ``nodes[i]`` is a _SplitNode or a float leaf value."""

    nodes: list = field(default_factory=list)

    def predict_binned(self, B: np.ndarray) -> np.ndarray:
        out = np.zeros(B.shape[0])
        frontier = [(0, np.arange(B.shape[0], dtype=np.intp))]
        while frontier:
            node_id, rows = frontier.pop()
            if rows.size == 0:
                continue
            node = self.nodes[node_id]
            if isinstance(node, float):
                out[rows] = node
                continue
            go_left = B[rows, node.feature] <= node.bin_threshold
            frontier.append((node.left, rows[go_left]))
            frontier.append((node.right, rows[~go_left]))
        return out


def seed_gbdt_best_split(
    builder: _HistTreeBuilder, B: np.ndarray, g: np.ndarray, h: np.ndarray, idx: np.ndarray
) -> tuple[float, int, int]:
    """Seed GBDT split search: per feature, ``bincount`` histograms of the
    gradients, hessians and rows at ``idx``, their cumulative sums, and
    the first bin with the largest gain; a feature wins only by a strictly
    larger gain.  Returns (gain, feature, bin_threshold)."""
    lam = builder.reg_lambda
    G, H = g[idx].sum(), h[idx].sum()
    parent = G * G / (H + lam)
    best = (-np.inf, -1, -1)
    for f in range(B.shape[1]):
        nb = builder.binner.n_bins(f)
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
        valid = (NL >= builder.min_child_samples) & (NR >= builder.min_child_samples)
        if not np.any(valid):
            continue
        gain = GL * GL / (HL + lam) + GR * GR / (HR + lam) - parent
        gain[~valid] = -np.inf
        b = int(np.argmax(gain))
        if gain[b] > best[0]:
            best = (float(gain[b]), f, b)
    return best


class SeedHistTreeBuilder(_HistTreeBuilder):
    """Leaf-wise growth into a :class:`SeedHistTree`'s list of nodes, with
    the splits of :func:`seed_gbdt_best_split`, so that the oracle keeps
    its own split search when the live one is rewritten."""

    def build(self, B: np.ndarray, g: np.ndarray, h: np.ndarray) -> SeedHistTree:
        lam = self.reg_lambda

        def leaf_value(idx: np.ndarray) -> float:
            return float(-g[idx].sum() / (h[idx].sum() + lam))

        tree = SeedHistTree()
        root_idx = np.arange(B.shape[0], dtype=np.intp)
        tree.nodes.append(leaf_value(root_idx))
        if root_idx.size < 2 * self.min_child_samples:
            return tree

        # Leaf-wise growth: a heap of candidate splits keyed by -gain.
        heap: list[tuple[float, int, int, int, int, np.ndarray]] = []
        counter = 0  # tiebreaker so ndarray never gets compared

        def push(node_id: int, idx: np.ndarray, depth: int) -> None:
            nonlocal counter
            if self.max_depth is not None and depth >= self.max_depth:
                return
            if idx.size < 2 * self.min_child_samples:
                return
            gain, f, b = seed_gbdt_best_split(self, B, g, h, idx)
            if gain > self.min_gain:
                heapq.heappush(heap, (-gain, counter, node_id, f, b, idx, depth))
                counter += 1

        push(0, root_idx, 0)
        n_leaves = 1
        while heap and n_leaves < self.max_leaves:
            _, _, node_id, f, b, idx, depth = heapq.heappop(heap)
            go_left = B[idx, f] <= b
            left_idx, right_idx = idx[go_left], idx[~go_left]
            left_id = len(tree.nodes)
            tree.nodes.append(leaf_value(left_idx))
            right_id = len(tree.nodes)
            tree.nodes.append(leaf_value(right_idx))
            tree.nodes[node_id] = _SplitNode(f, b, left_id, right_id)
            n_leaves += 1
            push(left_id, left_idx, depth + 1)
            push(right_id, right_idx, depth + 1)
        return tree


class SeedFrontierBoosting(GradientBoostingClassifier):
    """A GBDT whose trees are :class:`SeedHistTree` node lists, in fit as
    in prediction."""

    _tree_builder = SeedHistTreeBuilder


def seed_softmax(Z: np.ndarray) -> np.ndarray:
    """Seed row-wise softmax: the row max as a reduction along axis 1."""
    Z = Z - Z.max(axis=1, keepdims=True)
    np.exp(Z, out=Z)
    Z /= Z.sum(axis=1, keepdims=True)
    return Z


class SeedObjectiveLR(LogisticRegression):
    """Logistic regression fitted with the seed objective, by
    :func:`scipy.optimize.minimize` as the seed fitted it."""

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None):
        from scipy.optimize import minimize

        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="logistic regression")
        n, d = X.shape
        self.n_classes_, self.n_features_in_ = n_classes, d
        w0 = np.zeros(d * n_classes + n_classes)
        if self._init_coef is not None:
            w0 = np.concatenate([np.ravel(self._init_coef), self._init_intercept])
            self._init_coef = self._init_intercept = None
        res = minimize(
            self._objective(X, y, n_classes, lam=1.0 / (self.C * n)),
            w0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_ = res.x[: d * n_classes].reshape(d, n_classes)
        self.intercept_ = res.x[d * n_classes :]
        self.n_iter_ = int(res.nit)
        return self

    @staticmethod
    def _objective(
        X: np.ndarray, y: np.ndarray, n_classes: int, lam: float
    ) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        n, d = X.shape
        Y = np.zeros((n, n_classes))
        Y[np.arange(n), y] = 1.0

        def objective(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = w_flat[: d * n_classes].reshape(d, n_classes)
            b = w_flat[d * n_classes :]
            Z = X @ W + b
            # log-sum-exp cross entropy
            Zmax = Z.max(axis=1, keepdims=True)
            logsumexp = Zmax[:, 0] + np.log(np.exp(Z - Zmax).sum(axis=1))
            ll = (Z[np.arange(n), y] - logsumexp).sum()
            P = seed_softmax(Z.copy())
            G = P - Y
            grad_W = X.T @ G / n + 2.0 * lam * W
            grad_b = G.sum(axis=0) / n
            loss = -ll / n + lam * float((W * W).sum())
            return loss, np.concatenate([grad_W.ravel(), grad_b])

        return objective

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return seed_softmax(self.decision_function(X))


def seed_encode(encoder: TabularEncoder, table: Table) -> np.ndarray:
    """Seed ``TabularEncoder.transform``: one matrix per column block,
    joined by ``np.hstack`` (dense pass; a sharded table materializes)."""
    schema = encoder.schema_
    blocks: list[np.ndarray] = []
    if schema.numeric_names:
        num = np.column_stack([table.column(n) for n in schema.numeric_names])
        num = num.astype(np.float64, copy=False)
        if encoder._scaler is not None:
            num = (num - encoder._scaler.mean_) / encoder._scaler.scale_
        blocks.append(num)
    for col in schema.categorical_names:
        codes = table.column(col)
        onehot = np.zeros((table.n_rows, len(schema[col].categories)), dtype=np.float64)
        if table.n_rows:
            onehot[np.arange(table.n_rows), codes] = 1.0
        blocks.append(onehot)
    if not blocks:
        return np.zeros((table.n_rows, 0), dtype=np.float64)
    return np.hstack(blocks)
