"""CART decision tree classifier (gini / entropy) built from scratch.

Trees grow in lockstep.  :func:`_grow` takes a list of trees (one for a
standalone tree, all of them for a random forest) and advances them in
rounds.  Each tree walks its nodes in pre-order from an explicit stack, so
a tree that samples features draws them from its own generator in exactly
the order a recursive builder would.  A round moves every tree to its next
node that needs a split, closing leaves on the way, and one call of
:func:`_best_splits` then scores every waiting node of every tree at once.
A tree that draws no features has independent stack entries, so a round
takes its whole stack; its node ids are put in pre-order afterwards.

The split search is a histogram search.  Each column of ``X`` is coded
once per fit as an index into its sorted distinct values.  One sort of
flat (node, feature, code, class) keys counts the rows of every scanned
feature of every waiting node into a histogram of the values present at
the node; its cost follows the nodes' rows, not the columns' distinct
values.  Cumulative class counts give the left/right class counts at
every boundary between two adjacent present values, and the impurity
decrease of all candidates is evaluated in one pass.  Only boundaries
between distinct values are scored, never the rows between them.  A
child's class counts are its parent's chosen left or right counts.

The result is bit-identical to a recursive builder that sorts each
feature's values and scores every row position, the original tree, which
the test suite keeps as ``SeedSplitTree`` in its seed oracle under
``tests/perf/`` (pinned by ``tests/perf/test_seed_parity.py``).  The one
exception is a split between two adjacent floats whose midpoint rounds
onto the upper one: there the original sent every row left and never
stopped, and the lower value is the threshold here.

A fitted tree is a set of flat arrays, which :func:`_grow` writes as it
visits the nodes, numbered in pre-order: ``feature_`` and ``threshold_``
(a row whose value of ``feature_[j]`` exceeds ``threshold_[j]`` goes
right), ``children_`` (node ``j``'s left child at ``2 * j``, its right
child at ``2 * j + 1``), ``value_`` (a leaf's class distribution, a row
of zeros at a split) and ``depth_``, the deepest leaf's depth.  A leaf's
two children are the leaf itself, so prediction needs no leaf test: it
starts every row at the root and takes ``depth_`` steps of
``node = children_[2 * node + (x[feature_[node]] > threshold_[node])]``,
each one a few ``take`` calls over all rows (:func:`_leaf_walk`), and
then reads ``value_`` at each row's node.  A forest walks its trees one
after another and adds their leaf rows in tree order.  Walking all trees
at once would save little, and its temporaries would grow with the
number of trees times the rows instead of with the rows.  The gradient
boosting model's trees use the same layout and walk, on bin codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_fit_inputs, check_predict_input


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of sorted ``a`` that differ from their predecessor."""
    mask = np.empty(a.size, dtype=bool)
    mask[:1] = True
    np.not_equal(a[1:], a[:-1], out=mask[1:])
    return mask


@dataclass(frozen=True)
class _BinnedX:
    """``X`` with every column coded by rank among its distinct values."""

    codes: np.ndarray  # (d, n): codes[f, i] indexes column f's values
    values: np.ndarray  # every column's sorted distinct values, column after column
    first: np.ndarray  # (d,): where column f's values start in ``values``
    n_bins: np.ndarray  # (d,): how many distinct values column f has

    @classmethod
    def from_array(cls, X: np.ndarray) -> "_BinnedX":
        codes = np.empty((X.shape[1], X.shape[0]), dtype=np.intp)
        values = []
        for f in range(X.shape[1]):
            uniq, codes[f] = np.unique(X[:, f], return_inverse=True)
            values.append(uniq)
        n_bins = np.array([v.size for v in values], dtype=np.intp)
        first = np.cumsum(n_bins) - n_bins
        return cls(codes, np.concatenate(values), first, n_bins)


def _impurity_from_counts(
    counts: np.ndarray, criterion: str, total: np.ndarray | None = None
) -> np.ndarray:
    """Impurity of distributions given as rows of class counts.

    ``total`` holds the row sums of ``counts`` if the caller knows them.
    """
    if total is None:
        total = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, counts / total, 0.0)
    if criterion == "gini":
        return 1.0 - (p * p).sum(axis=-1)
    # entropy
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -(p * logp).sum(axis=-1)


@dataclass(frozen=True)
class _Splits:
    """The nodes of one round that split, in ascending order of ``node``."""

    node: np.ndarray  # index of the node in the round
    feature: np.ndarray
    code: np.ndarray  # rows with codes[feature] <= code go left
    threshold: np.ndarray
    left: np.ndarray  # (k, c): class counts of the left child


def _best_splits(
    data: _BinnedX,
    keys_table: np.ndarray,
    rows: list[np.ndarray],
    counts: np.ndarray,
    features: np.ndarray,
    *,
    criterion: str,
    min_samples_leaf: int,
) -> _Splits:
    """Best split of every node of a round, found in one pass.

    Node ``i`` holds the rows ``rows[i]`` (repeats allowed), with class
    counts ``counts[i]``, and scans the features ``features[i]``.
    ``keys_table`` is ``codes * c + y``.
    """
    n_nodes, m = features.shape
    c = counts.shape[1]
    n = keys_table.shape[1]
    sizes = np.array([r.size for r in rows])
    all_rows = np.concatenate(rows)
    # Histogram bins: slot s = i * m + j (node i, its j-th feature) owns
    # bins [starts[s], ends[s]), one per distinct value of the feature; a
    # key is bin * c + label.
    n_bins = data.n_bins[features].ravel()
    ends = np.cumsum(n_bins)
    starts = ends - n_bins
    keys = keys_table.take(np.repeat(features * n, sizes, axis=0) + all_rows[:, None])
    keys += np.repeat(starts.reshape(n_nodes, m) * c, sizes, axis=0)
    keys = keys.ravel()
    # hist[i] counts the classes of present bin bins[i] (a value present
    # at the node).  Counting sorted keys costs the nodes' rows, not the
    # columns' distinct values, so deep nodes on many-valued columns stay
    # cheap.
    keys.sort()
    first = np.flatnonzero(_run_starts(keys))
    cells = keys[first]  # one per present (bin, class)
    cell_bins = cells // c
    new_bin = _run_starts(cell_bins)
    bins = cell_bins[new_bin]
    hist = np.zeros((bins.size, c), dtype=np.intp)
    run_lengths = np.append(first[1:], keys.size) - first
    hist[np.cumsum(new_bin) - 1, cells % c] = run_lengths
    seg = np.searchsorted(ends, bins, side="right")  # slot of each bin
    # A boundary follows every present value but each slot's largest.
    cand = np.flatnonzero(seg[:-1] == seg[1:])
    cand_slot = seg[cand]
    cand_node = cand_slot // m
    # Cumulative counts run across slots; each earlier slot contributed
    # its node's class totals once.
    slot_totals = np.repeat(counts, m, axis=0)
    before = np.cumsum(slot_totals, axis=0) - slot_totals
    left = np.cumsum(hist, axis=0)[cand] - before[cand_slot]
    totals = counts[cand_node]
    n_node = sizes[cand_node]
    # Rows left of a boundary: the keys up to it, less the earlier slots'.
    slot_rows = np.repeat(sizes, m)
    keys_before = np.cumsum(np.diff(np.append(first[new_bin], keys.size)))
    n_left = keys_before[cand] - (np.cumsum(slot_rows) - slot_rows)[cand_slot]
    n_right = n_node - n_left
    # One impurity pass over every left side, right side and parent.
    imp = _impurity_from_counts(
        np.concatenate((left, totals - left, counts)).astype(np.float64),
        criterion,
        np.concatenate((n_left, n_right, sizes)).astype(np.float64)[:, None],
    )
    k = cand.size
    weighted = (n_left * imp[:k] + n_right * imp[k : 2 * k]) / n_node
    gain = imp[2 * k :][cand_node] - weighted
    gain[(n_left < min_samples_leaf) | (n_right < min_samples_leaf)] = -np.inf
    # A node's candidates run in the order of its features and, within a
    # feature, by value, so its first maximum is the one a feature-by-
    # feature scan keeping only strict improvements would pick.
    node_first = np.flatnonzero(_run_starts(cand_node))
    best_gain = np.maximum.reduceat(gain, node_first) if k else gain
    hits = np.flatnonzero(gain == np.repeat(best_gain, np.diff(np.append(node_first, k))))
    best = hits[_run_starts(cand_node[hits])][best_gain > 1e-12]
    slot = cand_slot[best]
    node = cand_node[best]
    feature = features.ravel()[slot]
    code = bins[cand[best]] - starts[slot]
    lo = data.values[data.first[feature] + code]
    hi = data.values[data.first[feature] + bins[cand[best] + 1] - starts[slot]]
    # Midpoint threshold, matching CART convention.  Where the midpoint of
    # two adjacent floats rounds onto the upper one, the lower one is the
    # threshold, so that routing by value agrees with the counted split.
    mid = (lo + hi) / 2.0
    return _Splits(node, feature, code, np.where(mid < hi, mid, lo), left[best])


def _leaf_walk(
    Xf: np.ndarray,
    row_base: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    children: np.ndarray,
    depth: int,
) -> np.ndarray:
    """The leaf that each row of a matrix reaches in a tree of flat arrays.

    Row ``i`` of the matrix is ``Xf[row_base[i] : row_base[i] + d]``.  Node
    ``j`` sends a row right where its ``feature[j]`` value exceeds
    ``threshold[j]``, to ``children[2 * j + 1]``, and left otherwise, to
    ``children[2 * j]``.  A leaf's children are itself, so every row takes
    ``depth`` steps, one level each, and a row that meets a leaf early
    stays there.
    """
    node = np.zeros(row_base.size, dtype=np.intp)
    for _ in range(depth):
        right = Xf.take(row_base + feature.take(node)) > threshold.take(node)
        node = children.take(2 * node + right)
    return node


def _preorder(tree: DecisionTreeClassifier) -> None:
    """Renumber the nodes of ``tree`` (root first) in pre-order."""
    children = tree.children_.tolist()
    order = []
    stack = [0]
    while stack:
        node = stack.pop()
        order.append(node)
        left, right = children[2 * node], children[2 * node + 1]
        if left != node:
            stack += [right, left]
    new_id = np.empty(len(order), dtype=np.intp)
    new_id[order] = np.arange(len(order))
    tree.feature_ = tree.feature_[order]
    tree.threshold_ = tree.threshold_[order]
    tree.children_ = new_id[tree.children_.reshape(-1, 2)[order]].ravel()
    tree.value_ = tree.value_[order]


def _grow(
    trees: list[DecisionTreeClassifier],
    data: _BinnedX,
    y: np.ndarray,
    n_classes: int,
    samples: list[np.ndarray],
    rngs: list[np.random.Generator],
) -> None:
    """Grow ``trees``, which share their parameters, in lockstep.

    Tree ``t`` trains on the rows ``samples[t]`` of the validated, binned
    data and draws its features from ``rngs[t]``.  A row may repeat (a
    bootstrap sample); a repeat counts as often as it appears, exactly as
    if the sample had been copied out.
    """
    params = trees[0]
    d, n = data.codes.shape
    n_split_features = params._resolve_max_features(d)
    draws = n_split_features < d
    all_features = np.arange(d)
    keys_table = data.codes * n_classes + y

    def leaf_probas(counts: np.ndarray, depth: np.ndarray) -> list[np.ndarray | None]:
        """The class distribution of each node that is a leaf without a
        split search (pure, too small or at the depth cap), else None."""
        n_rows = counts.sum(axis=1)
        leaf = (np.count_nonzero(counts, axis=1) == 1) | (n_rows < params.min_samples_split)
        if params.max_depth is not None:
            leaf |= depth >= params.max_depth
        proba = counts / n_rows[:, None]
        return [p if is_leaf else None for p, is_leaf in zip(proba, leaf.tolist())]

    # Each tree's node arrays (see the module docstring), grown as lists.
    features = [[] for _ in trees]
    thresholds = [[] for _ in trees]
    children = [[] for _ in trees]
    values = [[] for _ in trees]
    depths = [0] * len(trees)
    split_value = np.zeros(n_classes)

    def attach(
        t: int, slot: int, depth: int, value: np.ndarray, feature: int = 0, threshold: float = 0.0
    ) -> int:
        """Add a node to tree ``t`` at ``children[t][slot]`` (the root has
        no slot) and return its id.  It loops to itself until its own
        children attach."""
        node_id = len(values[t])
        if slot >= 0:
            children[t][slot] = node_id
        features[t].append(feature)
        thresholds[t].append(threshold)
        children[t] += (node_id, node_id)
        values[t].append(value)
        depths[t] = max(depths[t], depth)
        return node_id

    # A stack entry is a node to visit: (rows, class counts, depth, its
    # class distribution if it is a leaf, its slot in its parent's children).
    counts = np.array([np.bincount(y[rows], minlength=n_classes) for rows in samples])
    roots = zip(samples, counts, leaf_probas(counts, np.zeros(len(trees))))
    stacks = [[(rows, c, 0, proba, -1)] for rows, c, proba in roots]
    while True:
        waiting = []  # (tree, rows, counts, depth, slot, features)
        for t, stack in enumerate(stacks):
            while stack:
                rows, c, depth, proba, slot = stack.pop()
                if proba is not None:
                    attach(t, slot, depth, proba)
                    continue
                if draws:
                    drawn = rngs[t].choice(d, size=n_split_features, replace=False)
                    waiting.append((t, rows, c, depth, slot, drawn))
                    break  # the tree's next node depends on this split
                waiting.append((t, rows, c, depth, slot, all_features))
        if not waiting:
            break
        counts = np.array([w[2] for w in waiting])
        splits = _best_splits(
            data,
            keys_table,
            [w[1] for w in waiting],
            counts,
            np.array([w[5] for w in waiting]),
            criterion=params.criterion,
            min_samples_leaf=params.min_samples_leaf,
        )
        split_nodes = splits.node.tolist()
        # Route the rows of every node that splits at once.  The left rows,
        # and the right rows, stay grouped by node, in node order.
        split_rows = [waiting[i][1] for i in split_nodes]
        sizes = np.array([r.size for r in split_rows], dtype=np.intp)
        go_rows = np.concatenate(split_rows) if split_rows else np.empty(0, np.intp)
        go_left = data.codes.take(np.repeat(splits.feature * n, sizes) + go_rows)
        go_left = go_left <= np.repeat(splits.code, sizes)
        left_rows, right_rows = go_rows[go_left], go_rows[~go_left]
        left, right = splits.left, counts[splits.node] - splits.left
        left_bounds = [0, *np.cumsum(left.sum(axis=1)).tolist()]
        right_bounds = [0, *np.cumsum(right.sum(axis=1)).tolist()]
        child_depth = np.array([waiting[i][3] + 1 for i in split_nodes])
        child_proba = leaf_probas(np.concatenate((left, right)), np.tile(child_depth, 2))
        no_split_proba = counts / counts.sum(axis=1, keepdims=True)
        split_features, split_thresholds = splits.feature.tolist(), splits.threshold.tolist()
        split_of = {i: k for k, i in enumerate(split_nodes)}
        for i, (t, _, _, depth, slot, _) in enumerate(waiting):
            k = split_of.get(i)
            if k is None:
                attach(t, slot, depth, no_split_proba[i])
                continue
            node_id = attach(t, slot, depth, split_value, split_features[k], split_thresholds[k])
            # The right child goes on the stack first, so the left is visited first.
            right_k = right_rows[right_bounds[k] : right_bounds[k + 1]]
            left_k = left_rows[left_bounds[k] : left_bounds[k + 1]]
            right_proba = child_proba[len(split_nodes) + k]
            stacks[t].append((right_k, right[k], depth + 1, right_proba, 2 * node_id + 1))
            stacks[t].append((left_k, left[k], depth + 1, child_proba[k], 2 * node_id))
    for t, tree in enumerate(trees):
        tree.n_classes_ = n_classes
        tree.n_features_in_ = d
        tree.feature_ = np.array(features[t], dtype=np.intp)
        tree.threshold_ = np.array(thresholds[t], dtype=np.float64)
        tree.children_ = np.array(children[t], dtype=np.intp)
        tree.value_ = np.array(values[t])
        tree.depth_ = depths[t]
        if not draws:
            _preorder(tree)


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
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.children_: np.ndarray | None = None
        self.value_: np.ndarray | None = None
        self.depth_: int | None = None
        self.n_classes_: int | None = None
        self.n_features_in_: int | None = None

    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "DecisionTreeClassifier":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="tree")
        rows = np.arange(X.shape[0], dtype=np.intp)
        rng = check_random_state(self.random_state)
        _grow([self], _BinnedX.from_array(X), y, n_classes, [rows], [rng])
        return self

    def _resolve_max_features(self, d: int) -> int:
        if self.max_features is None:
            return d
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(d)))
        if isinstance(self.max_features, (int, np.integer)):
            return int(np.clip(self.max_features, 1, d))
        raise ValueError(f"invalid max_features: {self.max_features!r}")

    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.value_ is None or self.n_classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        return self._leaf_values(X.ravel(), np.arange(X.shape[0]) * X.shape[1])

    def _leaf_values(self, Xf: np.ndarray, row_base: np.ndarray) -> np.ndarray:
        """The class distribution of the leaf each row reaches, for the
        validated rows laid out as :func:`_leaf_walk` takes them."""
        leaves = _leaf_walk(
            Xf, row_base, self.feature_, self.threshold_, self.children_, self.depth_
        )
        return self.value_.take(leaves, axis=0)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return 0 if self.feature_ is None else self.feature_.size

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if self.depth_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        return self.depth_
