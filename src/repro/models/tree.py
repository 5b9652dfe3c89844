"""CART decision tree classifier (gini / entropy) built from scratch.

Trees grow in lockstep.  :func:`_grow` takes a list of trees (one for a
standalone tree, all of them for a random forest) and advances them in
rounds.  Each tree keeps the nodes that still need a split search on an
explicit stack, in the pre-order a recursive builder would visit them, so
a tree that samples features draws them from its own generator in exactly
that builder's order.  A round takes every tree's next such node (a tree
that draws no features has independent stack entries and gives its whole
stack), and one call of :func:`_best_splits` scores them all at once.  A
node that is a leaf (pure, too small, at the depth cap, or without a
gainful split) never waits: it is closed in the round that makes it.
Nodes are numbered as they are made, and :func:`_write_trees` renumbers
each tree's nodes in pre-order at the end.

The split search is a histogram search.  Each column of ``X`` is coded
once per fit as an index into its sorted distinct values.  Flat (node,
feature, code, class) keys count the rows of every scanned feature of
every waiting node into a histogram of the values present at the node.
The keys are built feature-major: for the j-th scanned feature of every
node, one row of keys over all the round's rows, gathered from a per-fit
``codes * c + y`` table and offset by the node's own bins.  They are
written into one scratch buffer allocated once per fit and sized by the
root round, the largest: a tree's waiting nodes hold disjoint parts of
its sample, so no later round has more rows.  The order of the keys does
not matter: a key names its (node, feature, value, class) cell, every
count below depends only on how many keys each cell gets, and the counts
are integers.  A round whose histogram has no more cells (distinct
values times classes, summed over the scanned features) than keys counts
them with one ``bincount`` into a dense cell array (:func:`_dense_counts`),
the common case near the root and on low-cardinality columns.  A round
with more cells than keys, such as deep nodes on many-valued columns,
sorts the keys and counts their runs (:func:`_sorted_counts`), at a cost
that follows the nodes' rows, not the columns' distinct values.  Either
way the counts take no more memory than the keys.  Cumulative class
counts give the left/right class counts at every boundary between two
adjacent present values, and the impurity decrease of all candidates is
evaluated in one pass.  Only boundaries between distinct values are
scored, never the rows between them.  A child's class counts are its
parent's chosen left or right counts.  The same buffer then routes the
round's rows: one gather of every row's code on its node's split feature
splits them into the left rows and the right rows, each grouped by node
in node order.  A round whose children are all leaves (at the depth cap,
for instance) routes nothing, since no later round reads their rows.  Only that grouping matters; the order of the rows inside
a node changes no count.

The result is bit-identical to a recursive builder that sorts each
feature's values and scores every row position, the original tree, which
the test suite keeps as ``SeedSplitTree`` in its seed oracle under
``tests/perf/`` (pinned by ``tests/perf/test_seed_parity.py``).  The one
exception is a split between two adjacent floats whose midpoint rounds
onto the upper one: there the original sent every row left and never
stopped, and the lower value is the threshold here.

A fitted tree is a set of flat arrays, with its nodes numbered in
pre-order (a forest's trees share one array of each kind and hold
slices of it): ``feature_`` and ``threshold_``
(a row whose value of ``feature_[j]`` exceeds ``threshold_[j]`` goes
right), ``children_`` (node ``j``'s left child at ``2 * j``, its right
child at ``2 * j + 1``), ``value_`` (a leaf's class distribution, a row
of zeros at a split) and ``depth_``, the deepest leaf's depth.  A leaf's
two children are the leaf itself, so prediction needs no leaf test: it
starts every row at the root and takes ``depth_`` steps of
``node = children_[2 * node + (x[feature_[node]] > threshold_[node])]``,
each one a few ``take`` calls over all rows (:func:`_leaf_walk`), and
then reads ``value_`` at each row's node.  A forest walks all its trees
at once: :func:`_grow` also returns their nodes in one set of arrays
with global child ids (:class:`_ForestNodes`), and :func:`_leaf_walk`
starts each tree's rows at its root, so one walk's ``take`` calls cover
trees times rows.  On the paper's 50 shallow trees and a few thousand
rows, the per-call overhead of walking tree by tree was most of a
predict; the forest keeps the temporaries bounded by walking blocks of
rows.  The gradient boosting model's trees use the same layout and walk,
on bin codes.

Where a tree scans a random subset of the features at each split, it
reads them from a :class:`_FeatureTape`, which records each tree's
``choice`` draws in the order its splits use them and draws from the
tree's generator only past the tape's end.  A standalone tree's tape
lives for one fit; a forest with an integer seed keeps its trees' tapes
across fits of the same shape (see :mod:`repro.models.forest`).
"""

from __future__ import annotations

import threading
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
        # The empty head gives concatenate an array when X has no columns.
        return cls(codes, np.concatenate([np.empty(0, X.dtype), *values]), first, n_bins)


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


def _dense_counts(keys: np.ndarray, n_cells: int, c: int) -> tuple[np.ndarray, ...]:
    """``(bins, hist, through)`` of the keys ``bin * c + label``, all below
    ``n_cells``, counted into one cell per (bin, label): ``bins`` are the
    bins with keys, ``hist`` their class counts and ``through`` the number
    of keys up to and including each of them."""
    counts = np.bincount(keys, minlength=n_cells).reshape(-1, c)
    bin_rows = counts.sum(axis=1)
    bins = np.flatnonzero(bin_rows)
    return bins, counts[bins], np.cumsum(bin_rows)[bins]


def _sorted_counts(keys: np.ndarray, c: int) -> tuple[np.ndarray, ...]:
    """:func:`_dense_counts` by sorting ``keys`` (in place) and counting
    its runs, at a cost that follows the keys, not the cells."""
    keys.sort()
    first = np.flatnonzero(_run_starts(keys))
    cells = keys[first]  # one per present (bin, label)
    cell_bins = cells // c
    new_bin = _run_starts(cell_bins)
    hist = np.zeros((np.count_nonzero(new_bin), c), dtype=np.intp)
    hist[np.cumsum(new_bin) - 1, cells % c] = np.append(first[1:], keys.size) - first
    return cell_bins[new_bin], hist, np.append(first[new_bin][1:], keys.size)


@dataclass(frozen=True)
class _Splits:
    """The nodes of one round that split, in ascending order of ``node``."""

    node: np.ndarray  # index of the node in the round
    feature: np.ndarray
    code: np.ndarray  # rows with codes[feature] <= code go left
    threshold: np.ndarray
    left: np.ndarray  # (k, c): class counts of the left child


@dataclass(frozen=True)
class _ForestNodes:
    """The nodes of several trees in one set of flat arrays, tree after
    tree, each tree's in pre-order, laid out like one tree's but with
    global node ids: ``children`` points into the whole set and ``roots``
    holds each tree's root.  ``depth`` is the deepest tree's depth."""

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int


def _best_splits(
    data: _BinnedX,
    keys_table: np.ndarray,
    rows: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    features: np.ndarray,
    scratch: np.ndarray,
    *,
    criterion: str,
    min_samples_leaf: int,
) -> _Splits:
    """Best split of every node of a round, found in one pass.

    Node ``i`` holds ``sizes[i]`` rows (repeats allowed), stored in
    ``rows`` one node after another, with class counts ``counts[i]``, and
    scans the features ``features[i]``.  ``keys_table`` is
    ``codes * c + y``.  The keys are written into ``scratch``, which holds
    at least ``(m + 1) * rows.size`` entries.
    """
    n_nodes, m = features.shape
    c = counts.shape[1]
    n = keys_table.shape[1]
    n_rows = rows.size
    # Histogram bins: slot s = i * m + j (node i, its j-th feature) owns
    # bins [starts[s], ends[s]), one per distinct value of the feature; a
    # key is bin * c + label.
    n_bins = data.n_bins[features].ravel()
    ends = np.cumsum(n_bins)
    starts = ends - n_bins
    # Feature-major: keys[j] holds every row's key for its node's j-th
    # feature, built from per-node constants repeated over the node's rows.
    # (The indices are in range; mode="raise" would copy ``out`` first.)
    keys = scratch[: m * n_rows].reshape(m, n_rows)
    at = scratch[m * n_rows : (m + 1) * n_rows]
    column_start = features.T * n
    first_key = starts.reshape(n_nodes, m).T * c
    for j in range(m):
        np.add(np.repeat(column_start[j], sizes), rows, out=at)
        keys_table.take(at, out=keys[j], mode="clip")
        keys[j] += np.repeat(first_key[j], sizes)
    keys = keys.ravel()
    # bins holds the bins present at their node (values with rows there),
    # hist[i] the class counts of bins[i], through[i] the keys up to and
    # including bins[i].  A round with no more (bin, label) cells than keys
    # counts into one array of cells; one with more, such as deep nodes on
    # many-valued columns, sorts its keys.  Either way the counts are never
    # longer than the keys.
    n_cells = int(n_bins.sum()) * c
    if n_cells <= keys.size:
        bins, hist, through = _dense_counts(keys, n_cells, c)
    else:
        bins, hist, through = _sorted_counts(keys, c)
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
    n_left = through[cand] - (np.cumsum(slot_rows) - slot_rows)[cand_slot]
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
    roots: np.ndarray | None = None,
) -> np.ndarray:
    """The leaf that each row of a matrix reaches in a tree of flat arrays.

    Row ``i`` of the matrix is ``Xf[row_base[i] : row_base[i] + d]``.  Node
    ``j`` sends a row right where its ``feature[j]`` value exceeds
    ``threshold[j]``, to ``children[2 * j + 1]``, and left otherwise, to
    ``children[2 * j]``.  A leaf's children are itself, so every row takes
    ``depth`` steps, one level each, and a row that meets a leaf early
    stays there.  Every row starts at node 0, or, for several trees in one
    set of arrays, at each of ``roots``, their root ids: then the result
    has one row of leaves per tree.
    """
    if roots is None:
        node = np.zeros(row_base.size, dtype=np.intp)
    else:
        node = np.broadcast_to(roots[:, None], (roots.size, row_base.size))
    for _ in range(depth):
        right = Xf.take(row_base + feature.take(node)) > threshold.take(node)
        node = children.take(2 * node + right)
    return node


def _n_split_features(max_features: int | str | None, d: int) -> int:
    """How many of ``d`` features a split scans under ``max_features``."""
    if max_features is None:
        return d
    if max_features == "sqrt":
        return max(1, int(np.sqrt(d)))
    return min(int(max_features), d)


class _FeatureTape:
    """The features each tree's splits scan, drawn once from its generator.

    Row ``k`` of tree ``t`` is the ``k``-th ``choice(d, size=m,
    replace=False)`` draw of ``rngs[t]``, the features of the ``k``-th
    node that the tree searches for a split.  A fit reads rows from the
    start and a tree's generator draws nothing else, so every fit that
    reads a tape reads the draws it would have drawn itself, whichever
    fit drew them first.  The tape is extended from the trees' own
    generators, under a lock, only when a fit reads past its end.
    """

    def __init__(self, rngs: list[np.random.Generator], d: int, m: int) -> None:
        self._rngs = rngs
        self._d, self._m = d, m
        self._lock = threading.Lock()
        # (draws, drawn): draws[t, :drawn[t]] are tree t's draws so far.
        # Replaced as a pair, and rows below ``drawn`` are never written
        # again, so a reader that takes the pair without the lock sees
        # finished rows.
        self._state = (np.empty((len(rngs), 0, m), dtype=np.intp), np.zeros(len(rngs), np.intp))

    def take(self, trees: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Row ``index[i]`` of tree ``trees[i]``, for every ``i``; a tree
        appears at most once."""
        draws, drawn = self._state
        if (index >= drawn[trees]).any():
            draws, drawn = self._extend(trees, index)
        return draws[trees, index]

    def _extend(self, trees: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            draws, drawn = self._state
            if index.max() >= draws.shape[1]:
                wider = np.empty((len(self._rngs), 2 * int(index.max()) + 1, self._m), np.intp)
                wider[:, : draws.shape[1]] = draws
                draws = wider
            n_drawn = drawn.tolist()
            at_tree, at_row, rows = [], [], []
            for t, k in zip(trees.tolist(), index.tolist()):
                rng = self._rngs[t]
                for j in range(n_drawn[t], k + 1):
                    rows.append(rng.choice(self._d, size=self._m, replace=False))
                    at_tree.append(t)
                    at_row.append(j)
                n_drawn[t] = max(n_drawn[t], k + 1)
            if rows:  # none when another fit extended the tape first
                draws[at_tree, at_row] = rows
            self._state = (draws, np.array(n_drawn, dtype=np.intp))
            return self._state


def _grow(
    trees: list[DecisionTreeClassifier],
    data: _BinnedX,
    y: np.ndarray,
    n_classes: int,
    samples: list[np.ndarray],
    tape: _FeatureTape,
) -> _ForestNodes:
    """Grow ``trees``, which share their parameters, in lockstep.

    Tree ``t`` trains on the rows ``samples[t]`` of the validated, binned
    data and reads the features of its k-th split search from row ``k``
    of its draws on ``tape``, ``_n_split_features`` of the ``d`` columns
    (the tape is not read when that is all of them).  A row may repeat (a bootstrap sample); a repeat
    counts as often as it appears, exactly as if the sample had been
    copied out.  Returns the trees' nodes in one set of arrays.
    """
    params = trees[0]
    d, n = data.codes.shape
    n_split_features = _n_split_features(params.max_features, d)
    draws = n_split_features < d
    m = n_split_features if draws else d
    keys_table = data.codes * n_classes + y
    # One buffer serves every round: its rows, the gather indices and the
    # keys.  A tree's waiting nodes hold disjoint parts of its sample, so
    # no round has more rows than the root round.
    scratch = np.empty((m + 2) * sum(rows.size for rows in samples), dtype=np.intp)

    def is_leaf(counts: np.ndarray, depth: np.ndarray) -> np.ndarray:
        """Which nodes are leaves without a split search: pure, too small
        or at the depth cap."""
        leaf = np.count_nonzero(counts, axis=1) == 1
        leaf |= counts.sum(axis=1) < params.min_samples_split
        if params.max_depth is not None:
            leaf |= depth >= params.max_depth
        return leaf

    # Nodes get ids in the order they are created, the roots first and a
    # split's left and right child next to each other; the per-tree
    # pre-order ids are worked out at the end.  Per node: its tree and
    # depth; per leaf: its class distribution; per split: its id,
    # feature, threshold and left child's id (the right child's is next).
    n_trees = len(trees)
    node_tree = [np.arange(n_trees)]
    node_depth = [np.zeros(n_trees, dtype=np.intp)]
    leaf_ids, leaf_values, split_log = [], [], []

    def close(ids: np.ndarray, counts: np.ndarray) -> None:
        leaf_ids.append(ids)
        leaf_values.append(counts / counts.sum(axis=1, keepdims=True))

    # A stack entry is a node that needs a split search: (id, tree, rows,
    # class counts, depth).
    # One bincount of (tree, label) keys counts every root.
    tree_keys = np.repeat(np.arange(n_trees) * n_classes, [rows.size for rows in samples])
    tree_keys += y.take(np.concatenate(samples))
    counts = np.bincount(tree_keys, minlength=n_trees * n_classes).reshape(n_trees, n_classes)
    leaf = is_leaf(counts, node_depth[0])
    close(np.flatnonzero(leaf), counts[leaf])
    stacks = [[] if leaf[t] else [(t, t, samples[t], counts[t], 0)] for t in range(n_trees)]
    n_nodes = n_trees
    n_read = np.zeros(n_trees, dtype=np.intp)  # tape rows each tree has read
    while True:
        waiting = []
        if draws:
            # One node per tree: the tree's next node depends on this split.
            drawing = np.array([t for t, stack in enumerate(stacks) if stack], dtype=np.intp)
            waiting = [stacks[t].pop() for t in drawing.tolist()]
            drawn = tape.take(drawing, n_read[drawing])
            n_read[drawing] += 1
        else:
            for stack in stacks:
                waiting += stack
                stack.clear()
        if not waiting:
            break
        ids = np.array([w[0] for w in waiting])
        counts = np.array([w[3] for w in waiting])
        sizes = counts.sum(axis=1)
        n_rows = int(sizes.sum())
        rows = np.concatenate([w[2] for w in waiting], out=scratch[:n_rows])
        splits = _best_splits(
            data,
            keys_table,
            rows,
            sizes,
            counts,
            drawn if draws else np.tile(np.arange(d), (len(waiting), 1)),
            scratch[n_rows:],
            criterion=params.criterion,
            min_samples_leaf=params.min_samples_leaf,
        )
        # A node without a split is a leaf.
        no_split = np.ones(len(waiting), dtype=bool)
        no_split[splits.node] = False
        close(ids[no_split], counts[no_split])
        split_nodes = splits.node.tolist()
        k = len(split_nodes)
        if not k:
            continue
        # Split j's children get the ids first + 2j (left) and first + 2j + 1.
        first = n_nodes
        n_nodes += 2 * k
        child_counts = np.empty((k, 2, n_classes), dtype=counts.dtype)
        child_counts[:, 0] = splits.left
        child_counts[:, 1] = counts[splits.node] - splits.left
        child_counts = child_counts.reshape(2 * k, n_classes)
        child_depth = np.repeat([waiting[i][4] + 1 for i in split_nodes], 2)
        child_leaf = is_leaf(child_counts, child_depth)
        split_log.append(
            (ids[splits.node], splits.feature, splits.threshold, first + 2 * np.arange(k))
        )
        node_tree.append(np.repeat([waiting[i][1] for i in split_nodes], 2))
        node_depth.append(child_depth)
        close(first + np.flatnonzero(child_leaf), child_counts[child_leaf])
        if child_leaf.all():
            # Every child is a leaf (at the depth cap, say): no child needs
            # its rows.
            continue
        # Route the rows of every waiting node at once: a node that splits
        # by its split, one that does not all right (every code exceeds -1).
        # The left rows, and the right rows, stay grouped by node, in node
        # order.
        go_code = np.full(len(waiting), -1, dtype=np.intp)
        go_code[splits.node] = splits.code
        go_column = np.zeros(len(waiting), dtype=np.intp)
        go_column[splits.node] = splits.feature * n
        at = scratch[n_rows : 2 * n_rows]
        code = scratch[2 * n_rows : 3 * n_rows]
        np.add(np.repeat(go_column, sizes), rows, out=at)
        data.codes.take(at, out=code, mode="clip")
        go_left = code <= np.repeat(go_code, sizes)
        # np.compress, not a boolean index: several times faster on a
        # mask that alternates at random.
        n_go_left = np.count_nonzero(go_left)
        routed = np.empty(n_rows, dtype=np.intp)
        left_rows, right_rows = routed[:n_go_left], routed[n_go_left:]
        np.compress(go_left, rows, out=left_rows)
        np.compress(np.logical_not(go_left, out=go_left), rows, out=right_rows)
        n_left = np.zeros(len(waiting), dtype=np.intp)
        n_left[splits.node] = splits.left.sum(axis=1)
        left_bounds = [0, *np.cumsum(n_left).tolist()]
        right_bounds = [0, *np.cumsum(sizes - n_left).tolist()]
        pending = (~child_leaf).tolist()
        for j, i in enumerate(split_nodes):
            t, depth = waiting[i][1], waiting[i][4] + 1
            # The right child goes on the stack first, so the left is visited first.
            if pending[2 * j + 1]:
                right = right_rows[right_bounds[i] : right_bounds[i + 1]]
                stacks[t].append((first + 2 * j + 1, t, right, child_counts[2 * j + 1], depth))
            if pending[2 * j]:
                left = left_rows[left_bounds[i] : left_bounds[i + 1]]
                stacks[t].append((first + 2 * j, t, left, child_counts[2 * j], depth))
    return _write_trees(trees, n_classes, d, node_tree, node_depth, leaf_ids, leaf_values, split_log)


def _write_trees(
    trees: list[DecisionTreeClassifier],
    n_classes: int,
    d: int,
    node_tree: list[np.ndarray],
    node_depth: list[np.ndarray],
    leaf_ids: list[np.ndarray],
    leaf_values: list[np.ndarray],
    split_log: list[tuple[np.ndarray, ...]],
) -> _ForestNodes:
    """Give each tree its node arrays, its nodes numbered in pre-order,
    from the nodes :func:`_grow` logged in creation order; return all of
    them in one set."""
    tree_of = np.concatenate(node_tree)
    depth_of = np.concatenate(node_depth)
    n_nodes = tree_of.size
    value = np.zeros((n_nodes, n_classes))
    value[np.concatenate(leaf_ids)] = np.concatenate(leaf_values)
    feature = np.zeros(n_nodes, dtype=np.intp)
    threshold = np.zeros(n_nodes)
    left = np.arange(n_nodes)  # a leaf's children are itself
    right = np.arange(n_nodes)
    for ids, split_feature, split_threshold, left_ids in split_log:
        feature[ids] = split_feature
        threshold[ids] = split_threshold
        left[ids] = left_ids
        right[ids] = left_ids + 1
    # Subtree sizes bottom up: a split's children split in later rounds.
    size = np.ones(n_nodes, dtype=np.intp)
    for ids, _, _, left_ids in reversed(split_log):
        size[ids] += size[left_ids] + size[left_ids + 1]
    # Pre-order ids top down: the left subtree follows its parent, the
    # right subtree the left one.
    pos = np.zeros(n_nodes, dtype=np.intp)
    for ids, _, _, left_ids in split_log:
        pos[left_ids] = pos[ids] + 1
        pos[left_ids + 1] = pos[ids] + 1 + size[left_ids]
    n_tree_nodes = np.bincount(tree_of, minlength=len(trees))
    tree_first = np.cumsum(n_tree_nodes) - n_tree_nodes
    order = np.empty(n_nodes, dtype=np.intp)
    order[tree_first[tree_of] + pos] = np.arange(n_nodes)
    feature, threshold, value = feature[order], threshold[order], value[order]
    children = np.stack((pos[left], pos[right]), axis=1)[order].ravel()
    depth = np.maximum.reduceat(depth_of[order], tree_first)
    for t, tree in enumerate(trees):
        lo, hi = tree_first[t], tree_first[t] + n_tree_nodes[t]
        tree.n_classes_ = n_classes
        tree.n_features_in_ = d
        tree.feature_ = feature[lo:hi]
        tree.threshold_ = threshold[lo:hi]
        tree.children_ = children[2 * lo : 2 * hi]
        tree.value_ = value[lo:hi]
        tree.depth_ = int(depth[t])
    global_children = children + np.repeat(tree_first, 2 * n_tree_nodes)
    return _ForestNodes(feature, threshold, global_children, value, tree_first, int(depth.max()))


def _check_tree_params(
    max_depth: int | None,
    min_samples_split: int,
    min_samples_leaf: int,
    max_features: int | str | None,
    criterion: str,
) -> None:
    """Raise ``ValueError`` for tree parameters no tree can be grown with."""
    if criterion not in ("gini", "entropy"):
        raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0 or None, got {max_depth}")
    if min_samples_split < 2:
        raise ValueError("min_samples_split must be >= 2")
    if min_samples_leaf < 1:
        raise ValueError("min_samples_leaf must be >= 1")
    # bool is an int, but True is no feature count.
    is_count = isinstance(max_features, (int, np.integer)) and not isinstance(max_features, bool)
    is_sqrt = isinstance(max_features, str) and max_features == "sqrt"
    if not (max_features is None or is_sqrt or is_count):
        raise ValueError(
            f"max_features must be None, 'sqrt' or an int >= 1, got {max_features!r}"
        )
    if is_count and max_features < 1:
        raise ValueError(f"max_features must be >= 1, got {max_features}")


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
        _check_tree_params(max_depth, min_samples_split, min_samples_leaf, max_features, criterion)
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
        n, d = X.shape
        rows = np.arange(n, dtype=np.intp)
        rng = check_random_state(self.random_state)
        tape = _FeatureTape([rng], d, _n_split_features(self.max_features, d))
        _grow([self], _BinnedX.from_array(X), y, n_classes, [rows], tape)
        return self

    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.value_ is None or self.n_classes_ is None:
            raise RuntimeError("DecisionTreeClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        row_base = np.arange(X.shape[0]) * X.shape[1]
        leaves = _leaf_walk(
            X.ravel(), row_base, self.feature_, self.threshold_, self.children_, self.depth_
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
