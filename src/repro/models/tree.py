"""CART decision tree classifier (gini / entropy) built from scratch.

Trees grow in lockstep.  :func:`_grow` takes a list of trees (one for a
standalone tree, all of them for a random forest) and advances them in
rounds.  Each tree keeps the nodes that still need a split search on an
explicit stack, in the pre-order a recursive builder would visit them, so
a tree that samples features draws them from its own generator in exactly
that builder's order.  A round takes every tree's next such node (a tree
that draws no features has independent stack entries and gives its whole
stack), and one split search scores them all at once: :func:`_count_bins`
counts their histograms and :func:`_score_splits` picks each node's best
split from its histogram alone.  A node that is a leaf (pure, too small,
at the depth cap, or without a gainful split) never waits: it is closed
in the round that makes it.
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
for instance) routes nothing, since no later round reads their rows.
Only that grouping matters; the order of the rows inside a node changes
no count.

A forest fit can also start from the fit before it (:func:`_replay`).
:func:`_grow` keeps what each round searched (:class:`_GrowRounds`),
which becomes a :class:`_GrowRecord` only when a replay reads it: per
searched node its features, its decision (split feature and code, and
which children are searched) and its histogram.  A fit of the same
trees on the same samples whose first ``p`` rows are the last fit's
counts each recorded node again from the record alone: the recorded
counts, less the last fit's rows from ``p`` on, plus this fit's, both
routed down the recorded splits.  One :func:`_score_splits` call
scores every node of every tree.  A tree whose decisions all hold is
written from the record with this fit's thresholds and leaf values
(a node whose children neither fit searches may split anew); the
other trees grow again with :func:`_grow`.  Counts are integers and
every float comes from them exactly as a fit that grows every tree
computes it, so the trees are bit-identical to that fit's.

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
at once: :func:`_write_trees` also returns their nodes in one set of arrays
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
tree's generator only past the tape's end, several rows in one
bounded-integers call.  A standalone tree's tape lives for one fit; a
forest with an integer seed keeps its trees' tapes across fits of the
same shape (see :mod:`repro.models.forest`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

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

    def extend(self, X: np.ndarray, p: int) -> "_BinnedX | None":
        """The binning of ``X``, whose first ``p`` rows are those this
        binning codes, by coding only its rows from ``p`` on; None unless
        ``X`` has the same distinct values in every column."""
        codes = np.empty((X.shape[1], X.shape[0]), dtype=np.intp)
        codes[:, :p] = self.codes[:, :p]
        for f, (lo, size) in enumerate(zip(self.first.tolist(), self.n_bins.tolist())):
            values = self.values[lo : lo + size]
            at = np.searchsorted(values, X[p:, f]).clip(max=size - 1)
            if not (values[at] == X[p:, f]).all():
                return None
            codes[f, p:] = at
        # Every value must keep a row.
        bins = (codes + self.first[:, None]).ravel()
        if np.count_nonzero(np.bincount(bins, minlength=self.values.size)) < self.values.size:
            return None
        return _BinnedX(codes, self.values, self.first, self.n_bins)


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
    return _present_bins(np.bincount(keys, minlength=n_cells), c)


def _present_bins(cells: np.ndarray, c: int) -> tuple[np.ndarray, ...]:
    """:func:`_dense_counts` of the keys counted in ``cells``, one entry
    per (bin, label)."""
    counts = cells.reshape(-1, c)
    bin_rows = counts.sum(axis=1)
    bins = np.flatnonzero(bin_rows)
    return bins, counts[bins], np.cumsum(bin_rows)[bins]


def _sorted_counts(keys: np.ndarray, c: int) -> tuple[np.ndarray, ...]:
    """:func:`_dense_counts` by sorting ``keys`` (in place) and counting
    its runs, at a cost that follows the keys, not the cells."""
    keys.sort()
    first = np.flatnonzero(_run_starts(keys))
    return _cell_runs(keys[first], np.diff(np.append(first, keys.size)), c)


def _cell_runs(cells: np.ndarray, n_keys: np.ndarray, c: int) -> tuple[np.ndarray, ...]:
    """:func:`_dense_counts` of ascending distinct (bin, label) cells
    holding ``n_keys`` keys each."""
    cell_bins = cells // c
    new_bin = _run_starts(cell_bins)
    hist = np.zeros((np.count_nonzero(new_bin), c), dtype=np.intp)
    hist[np.cumsum(new_bin) - 1, cells % c] = n_keys
    bin_last = np.ones(cells.size, dtype=bool)  # the last cell of its bin
    bin_last[:-1] = new_bin[1:]
    return cell_bins[new_bin], hist, np.cumsum(n_keys)[bin_last]


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


def _slot_bins(data: _BinnedX, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` of every slot's histogram bins: slot ``s = i * m
    + j`` (node ``i``, its ``j``-th feature of ``features``) owns the bins
    ``[starts[s], ends[s])``, one per distinct value of the feature."""
    n_bins = data.n_bins[features].ravel()
    ends = np.cumsum(n_bins)
    return ends - n_bins, ends


def _count_bins(
    data: _BinnedX,
    keys_table: np.ndarray,
    c: int,
    rows: np.ndarray,
    sizes: np.ndarray,
    features: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The histogram of every node of a round, the counting half of the
    split search: ``(bins, hist, through)`` as :func:`_dense_counts` gives
    them, over the bins :func:`_slot_bins` lays out.

    Node ``i`` holds ``sizes[i]`` rows (repeats allowed), stored in
    ``rows`` one node after another, and scans the features
    ``features[i]``.  ``keys_table`` is ``codes * c + y``.  The keys are
    written into ``scratch``, which holds at least ``(m + 1) * rows.size``
    entries.
    """
    n_nodes, m = features.shape
    n = keys_table.shape[1]
    n_rows = rows.size
    starts, ends = _slot_bins(data, features)
    # Feature-major: keys[j] holds every row's key, bin * c + label, for
    # its node's j-th feature, built from per-node constants repeated over
    # the node's rows.  (The indices are in range; mode="raise" would copy
    # ``out`` first.)
    keys = scratch[: m * n_rows].reshape(m, n_rows)
    at = scratch[m * n_rows : (m + 1) * n_rows]
    column_start = features.T * n
    first_key = starts.reshape(n_nodes, m).T * c
    for j in range(m):
        np.add(np.repeat(column_start[j], sizes), rows, out=at)
        keys_table.take(at, out=keys[j], mode="clip")
        keys[j] += np.repeat(first_key[j], sizes)
    keys = keys.ravel()
    # A round with no more (bin, label) cells than keys counts into one
    # array of cells; one with more, such as deep nodes on many-valued
    # columns, sorts its keys.  Either way the counts are never longer
    # than the keys.
    n_cells = int(ends[-1]) * c if ends.size else 0
    if n_cells <= keys.size:
        return _dense_counts(keys, n_cells, c)
    return _sorted_counts(keys, c)


def _score_splits(
    data: _BinnedX,
    bins: np.ndarray,
    hist: np.ndarray,
    through: np.ndarray,
    counts: np.ndarray,
    features: np.ndarray,
    *,
    criterion: str,
    min_samples_leaf: int,
) -> _Splits:
    """Best split of every node of a round from its histogram, the scoring
    half of the split search.

    Node ``i`` has class counts ``counts[i]`` and scans the features
    ``features[i]``; ``(bins, hist, through)`` count its rows as
    :func:`_count_bins` does.  A node's split depends only on its own
    counts, not on the other nodes scored with it.
    """
    m = features.shape[1]
    sizes = counts.sum(axis=1)
    starts, ends = _slot_bins(data, features)
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


#: Rows an owned :class:`_FeatureTape` first draws for a tree; each later
#: draw for the tree doubles its rows.
_TAPE_CHUNK = 8


def _tail_shuffle(d: int, m: int) -> bool:
    """Whether ``choice(d, m, replace=False)`` shuffles the tail of
    ``arange(d)`` rather than taking Floyd's sample."""
    return d > 10000 and m > d // 50


def _choice_highs(d: int, m: int) -> np.ndarray:
    """The exclusive upper bounds of the integers, each drawn from 0, that
    one ``choice(d, m, replace=False)`` call draws, in order, where it
    takes Floyd's sample (not :func:`_tail_shuffle`)."""
    # Floyd's sample (Bentley & Floyd, CACM 1987) draws below j + 1 for j
    # from d - m to d - 1; the shuffle of its positions m - 1, ..., 1
    # draws below each position + 1.
    return np.concatenate((np.arange(d - m + 1, d + 1), np.arange(m, 1, -1)))


def _choice_rows(raw: np.ndarray, d: int, m: int) -> np.ndarray:
    """The rows that ``choice(d, m, replace=False)`` calls return, one per
    row of ``raw``, the integers a call draws under :func:`_choice_highs`."""
    n_rows = raw.shape[0]
    out = np.empty((n_rows, m), dtype=np.intp)
    # Floyd: the k-th draw v joins the sample unless it is there already,
    # when d - m + k, which no earlier step can have taken, joins instead.
    for k in range(m):
        v = raw[:, k]
        out[:, k] = np.where((out[:, :k] == v[:, None]).any(axis=1), d - m + k, v)
    at = np.arange(n_rows)
    for s, i in enumerate(range(m - 1, 0, -1)):
        j = raw[:, m + s]
        out[at, i], out[at, j] = out[at, j], out[at, i]
    return out


class _FeatureTape:
    """The features each tree's splits scan, drawn from its generator.

    Row ``k`` of tree ``t`` is what the ``k``-th ``choice(d, size=m,
    replace=False)`` call on ``rngs[t]`` returns, the features of the
    ``k``-th node that the tree searches for a split.  A fit reads rows
    from the start and a tree's generator draws nothing else, so every
    fit that reads a tape reads the draws it would have drawn itself,
    whichever fit drew them first.  The tape is extended, under a lock,
    only when a fit reads past its end.

    An extension draws each tree's new rows with one bounded-integers
    call on its generator and builds the rows from those integers with
    the steps ``choice`` takes (:func:`_choice_rows`), vectorized over
    all new rows: the rows, and the generator's state after them, are
    exactly those of one ``choice`` call per row
    (``tests/models/test_tree.py::TestFeatureTape`` pins both).  The
    shapes where ``choice`` shuffles the tail of ``arange(d)`` instead
    (:func:`_tail_shuffle`) call ``choice`` once per row.  Where
    the tape owns its generators (``owned``: a forest's spawned streams,
    or a tree's own stream from an integer or ``None`` seed), it draws ahead
    in chunks that double from :data:`_TAPE_CHUNK` rows, so a tree of
    depth 3, which searches at most 7 nodes, draws once.  A caller's
    generator gives exactly the rows a fit reads, and is left where a
    ``choice`` call per searched node leaves it.
    """

    def __init__(self, rngs: list[np.random.Generator], d: int, m: int, *, owned: bool) -> None:
        self._rngs = rngs
        self._d, self._m = d, m
        self._owned = owned
        self._highs = _choice_highs(d, m)
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
            short = index >= drawn[trees]
            trees, upto = trees[short], index[short] + 1
            if not trees.size:  # another fit extended the tape first
                return self._state
            if self._owned:
                upto = np.maximum(upto, np.maximum(2 * drawn[trees], _TAPE_CHUNK))
            width = int(upto.max())
            if width > draws.shape[1]:
                width = max(width, 2 * draws.shape[1])
                wider = np.empty((len(self._rngs), width, self._m), np.intp)
                wider[:, : draws.shape[1]] = draws
                draws = wider
            new = upto - drawn[trees]
            rows = self._draw(trees.tolist(), new.tolist())
            at_tree = np.repeat(trees, new)
            at_row = np.arange(at_tree.size) - np.repeat(np.cumsum(new) - new, new) + drawn[at_tree]
            draws[at_tree, at_row] = rows
            drawn = drawn.copy()
            drawn[trees] = upto
            self._state = (draws, drawn)
            return self._state

    def _draw(self, trees: list[int], new: list[int]) -> np.ndarray:
        """The next ``new[i]`` rows of tree ``trees[i]``, tree by tree."""
        d, m = self._d, self._m
        if _tail_shuffle(d, m):
            # No forest here scans such a shape; draw it the plain way.
            rows = [
                self._rngs[t].choice(d, m, replace=False)
                for t, k in zip(trees, new)
                for _ in range(k)
            ]
            return np.array(rows, dtype=np.intp)
        # One call per tree draws the integers of all its new rows.
        highs = np.tile(self._highs, max(new))
        raw = [self._rngs[t].integers(0, highs[: k * self._highs.size]) for t, k in zip(trees, new)]
        return _choice_rows(np.concatenate(raw).reshape(-1, self._highs.size), d, m)


def _is_leaf(counts: np.ndarray, depth: np.ndarray, params: DecisionTreeClassifier) -> np.ndarray:
    """Which nodes are leaves without a split search: pure, too small or
    at the depth cap."""
    leaf = np.count_nonzero(counts, axis=1) == 1
    leaf |= counts.sum(axis=1) < params.min_samples_split
    if params.max_depth is not None:
        leaf |= depth >= params.max_depth
    return leaf


@dataclass
class _NodeLog:
    """The nodes of a fit in the order they are made, which
    :func:`_write_trees` turns into trees.

    Nodes get ids in that order, a split's left and right child next to
    each other.  ``tree`` and ``depth`` hold every node's tree and depth,
    a batch of nodes per entry; ``leaf_ids`` and ``leaf_values`` every
    leaf's id and class distribution; ``splits`` one ``(ids, feature,
    threshold, left child ids)`` entry per batch of splits, each entry's
    parents split in earlier entries.
    """

    tree: list[np.ndarray] = field(default_factory=list)
    depth: list[np.ndarray] = field(default_factory=list)
    leaf_ids: list[np.ndarray] = field(default_factory=list)
    leaf_values: list[np.ndarray] = field(default_factory=list)
    splits: list[tuple[np.ndarray, ...]] = field(default_factory=list)
    n_nodes: int = 0

    def add(self, tree: np.ndarray, depth: np.ndarray) -> int:
        """Make nodes in the trees ``tree`` at ``depth``; return the first's id."""
        first = self.n_nodes
        self.tree.append(tree)
        self.depth.append(depth)
        self.n_nodes += tree.size
        return first

    def close(self, ids: np.ndarray, counts: np.ndarray) -> None:
        """Make the nodes ``ids`` leaves with the class counts ``counts``."""
        self.leaf_ids.append(ids)
        self.leaf_values.append(counts / counts.sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class _GrowRecord:
    """What a fit decided at every node it searched, and the counts it
    decided from: :func:`_replay` starts the next fit from them.

    Searched node ``g`` is in tree ``tree[g]`` at depth ``depth[g]``,
    scanned the features ``features[g]`` and split on ``feature[g]`` at
    ``code[g]`` (both -1 where no split gained).  ``child[g]`` holds the
    searched nodes that are its left and right child, -1 for a leaf.  A
    tree's nodes are in the order it searched them, so a parent comes
    before its children.  ``counts[g]`` are the node's class counts, and
    its histogram is the entries ``e`` with ``cell_node[e] == g``:
    ``cell_hist[e]`` are the class counts of bin ``cell_bin[e]`` of the
    node's bins, which run feature after feature as :func:`_slot_bins`
    lays them out.  ``root_counts[t]`` are the class counts of tree
    ``t``'s sample.
    """

    tree: np.ndarray
    depth: np.ndarray
    features: np.ndarray
    feature: np.ndarray
    code: np.ndarray
    child: np.ndarray
    counts: np.ndarray
    cell_node: np.ndarray
    cell_bin: np.ndarray
    cell_hist: np.ndarray
    root_counts: np.ndarray

    def select(self, keep: np.ndarray) -> "_GrowRecord":
        """The record of the searched nodes ``keep`` (a mask) alone, whose
        children are kept with them."""
        index = np.cumsum(keep) - 1
        cells = keep[self.cell_node]
        return replace(
            self,
            **{name: getattr(self, name)[keep] for name in _NODE_FIELDS},
            child=np.where(self.child[keep] >= 0, index[self.child[keep]], -1),
            cell_node=index[self.cell_node[cells]],
            cell_bin=self.cell_bin[cells],
            cell_hist=self.cell_hist[cells],
        )

    def join(self, other: "_GrowRecord") -> "_GrowRecord":
        """This record's nodes, then ``other``'s; this record's roots."""
        g = self.tree.size
        return replace(
            self,
            **{
                name: np.concatenate((getattr(self, name), getattr(other, name)))
                for name in (*_NODE_FIELDS, "cell_bin", "cell_hist")
            },
            child=np.concatenate((self.child, np.where(other.child >= 0, other.child + g, -1))),
            cell_node=np.concatenate((self.cell_node, other.cell_node + g)),
        )


_NODE_FIELDS = ("tree", "depth", "features", "feature", "code", "counts")


@dataclass(frozen=True)
class _GrowRounds:
    """The split searches of a :func:`_grow` call as its rounds made them:
    per round ``(ids, trees, depths, features, counts, (bins, hist,
    through), splits, first child id)`` of the nodes it searched, a tree
    ``t`` of the call being tree ``tree_ids[t]``.  :meth:`record` puts
    them in order only when a replay reads them, so a fit that is never
    replayed pays for none of it."""

    rounds: list[tuple]
    tree_ids: np.ndarray
    n_nodes: int
    m: int
    root_counts: np.ndarray

    def record(self, data: _BinnedX) -> _GrowRecord:
        """The :class:`_GrowRecord` of the searches, in ``data``'s binning."""
        c = self.root_counts.shape[1]
        shapes = [(0,)] * 3 + [(0, self.m), (0, c)] + [(0,)] * 5 + [(0, c)]
        columns = [[np.empty(shape, dtype=np.intp)] for shape in shapes]
        n_before = bins_before = 0
        for ids, tree, depth, features, counts, hist, splits, first in self.rounds:
            # The round's nodes and bins are numbered after earlier rounds'.
            parts = (
                ids,
                tree,
                depth,
                features,
                counts,
                splits.node + n_before,
                splits.feature,
                splits.code,
                first + 2 * np.arange(splits.node.size),
                hist[0] + bins_before,
                hist[1],
            )
            for column, part in zip(columns, parts):
                column.append(part)
            n_before += ids.size
            bins_before += int(data.n_bins[features].sum())
        ids, tree, depth, features, counts, split, split_feature, split_code, left, bins, hist = (
            np.concatenate(column) for column in columns
        )
        feature = np.full(ids.size, -1, dtype=np.intp)
        feature[split] = split_feature
        code = np.full(ids.size, -1, dtype=np.intp)
        code[split] = split_code
        # Split j's children have the ids left[j] and left[j] + 1; a leaf
        # is never searched, so its id maps to -1, and so does -1.
        searched = np.full(self.n_nodes + 1, -1, dtype=np.intp)
        searched[ids] = np.arange(ids.size)
        child = np.full((ids.size, 2), -1, dtype=np.intp)
        child[split] = searched[left[:, None] + np.arange(2)]
        node_bins = data.n_bins[features].sum(axis=1)
        node_end = np.cumsum(node_bins)
        cell_node = np.searchsorted(node_end, bins, side="right")
        return _GrowRecord(
            self.tree_ids[tree],
            depth,
            features,
            feature,
            code,
            child,
            counts,
            cell_node,
            bins - (node_end - node_bins)[cell_node],
            hist,
            self.root_counts,
        )


def _grow(
    trees: list[DecisionTreeClassifier],
    data: _BinnedX,
    y: np.ndarray,
    n_classes: int,
    samples: list[np.ndarray] | np.ndarray,
    tape: _FeatureTape,
    *,
    tree_ids: np.ndarray | None = None,
) -> tuple[_NodeLog, _GrowRounds]:
    """Grow ``trees``, which share their parameters, in lockstep.

    Tree ``t`` trains on the rows ``samples[t]`` of the validated, binned
    data and reads the features of its k-th split search from row ``k``
    of tree ``tree_ids[t]``'s draws on ``tape`` (``tree_ids`` defaults to
    ``0, 1, ...``), ``_n_split_features`` of the ``d`` columns (the tape
    is not read when that is all of them).  A row may repeat (a bootstrap
    sample); a repeat counts as often as it appears, exactly as if the
    sample had been copied out.  Returns the log of the trees' nodes, each
    node's tree given by ``tree_ids``, and the trees' split searches.
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
    n_trees = len(trees)
    if tree_ids is None:
        tree_ids = np.arange(n_trees)
    log = _NodeLog()
    # What each round searched (see _GrowRounds).
    rounds: list[tuple] = []

    # A stack entry is a node that needs a split search: (id, tree, rows,
    # class counts, depth).
    # One bincount of (tree, label) keys counts every root.
    tree_keys = np.repeat(np.arange(n_trees) * n_classes, [rows.size for rows in samples])
    tree_keys += y.take(np.concatenate(samples))
    root_counts = np.bincount(tree_keys, minlength=n_trees * n_classes).reshape(n_trees, n_classes)
    log.add(tree_ids, np.zeros(n_trees, dtype=np.intp))
    leaf = _is_leaf(root_counts, np.zeros(n_trees, dtype=np.intp), params)
    log.close(np.flatnonzero(leaf), root_counts[leaf])
    stacks = [[] if leaf[t] else [(t, t, samples[t], root_counts[t], 0)] for t in range(n_trees)]
    n_read = np.zeros(n_trees, dtype=np.intp)  # tape rows each tree has read
    while True:
        waiting = []
        if draws:
            # One node per tree: the tree's next node depends on this split.
            drawing = np.array([t for t, stack in enumerate(stacks) if stack], dtype=np.intp)
            waiting = [stacks[t].pop() for t in drawing.tolist()]
            features = tape.take(tree_ids[drawing], n_read[drawing])
            n_read[drawing] += 1
        else:
            for stack in stacks:
                waiting += stack
                stack.clear()
            features = np.tile(np.arange(d), (len(waiting), 1))
        if not waiting:
            break
        ids = np.array([w[0] for w in waiting])
        node_tree = np.array([w[1] for w in waiting])
        node_depth = np.array([w[4] for w in waiting])
        counts = np.array([w[3] for w in waiting])
        sizes = counts.sum(axis=1)
        n_rows = int(sizes.sum())
        rows = np.concatenate([w[2] for w in waiting], out=scratch[:n_rows])
        hist = _count_bins(data, keys_table, n_classes, rows, sizes, features, scratch[n_rows:])
        splits = _score_splits(
            data,
            *hist,
            counts,
            features,
            criterion=params.criterion,
            min_samples_leaf=params.min_samples_leaf,
        )
        # A node without a split is a leaf.
        no_split = np.ones(len(waiting), dtype=bool)
        no_split[splits.node] = False
        log.close(ids[no_split], counts[no_split])
        rounds.append((ids, node_tree, node_depth, features, counts, hist, splits, log.n_nodes))
        split_nodes = splits.node.tolist()
        k = len(split_nodes)
        if not k:
            continue
        # Split j's children get the ids first + 2j (left) and first + 2j + 1.
        child_depth = np.repeat(node_depth[splits.node] + 1, 2)
        first = log.add(tree_ids[np.repeat(node_tree[splits.node], 2)], child_depth)
        child_counts = np.empty((k, 2, n_classes), dtype=counts.dtype)
        child_counts[:, 0] = splits.left
        child_counts[:, 1] = counts[splits.node] - splits.left
        child_counts = child_counts.reshape(2 * k, n_classes)
        child_leaf = _is_leaf(child_counts, child_depth, params)
        log.splits.append(
            (ids[splits.node], splits.feature, splits.threshold, first + 2 * np.arange(k))
        )
        log.close(first + np.flatnonzero(child_leaf), child_counts[child_leaf])
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
    return log, _GrowRounds(rounds, tree_ids, log.n_nodes, m, root_counts)


def _signed_counts(keys: np.ndarray, add: np.ndarray, size: int) -> np.ndarray:
    """Counts of the keys where ``add`` less counts of the others."""
    return np.bincount(keys[add], minlength=size) - np.bincount(keys[~add], minlength=size)


def _merged_counts(
    bins: np.ndarray, hist: np.ndarray, keys: np.ndarray, add: np.ndarray, n_bins: int, c: int
) -> tuple[np.ndarray, ...]:
    """:func:`_dense_counts` of the recorded counts ``hist`` of the distinct
    ``bins`` (of ``n_bins``), plus the ``keys`` where ``add`` and less the
    others."""
    if n_bins * c <= hist.size + keys.size:
        cells = np.zeros((n_bins, c), dtype=np.intp)
        cells[bins] = hist
        cells = cells.ravel()
        cells += _signed_counts(keys, add, n_bins * c)
        return _present_bins(cells, c)
    # Many cells (deep nodes on many-valued columns): add the recorded and
    # the routed counts by sorting their keys, not into cells.
    keys = np.concatenate((((bins * c)[:, None] + np.arange(c)).ravel(), keys))
    weight = np.concatenate((hist.ravel(), np.where(add, 1, -1)))
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(_run_starts(keys))
    n_keys = np.add.reduceat(weight[order], first)
    held = n_keys > 0
    return _cell_runs(keys[first][held], n_keys[held], c)


def _log_kept(
    log: _NodeLog,
    last: _GrowRecord,
    root: np.ndarray,
    kept_tree: np.ndarray,
    keep: np.ndarray,
    root_counts: np.ndarray,
    counts: np.ndarray,
    feature: np.ndarray,
    threshold: np.ndarray,
    child_counts: np.ndarray,
) -> None:
    """Log the nodes of the trees ``kept_tree`` (a mask) that keep the
    shape of ``last``, whose searched nodes ``keep`` are theirs: their
    roots, then the children of their splits.  ``root[t]`` is tree ``t``'s
    root among the searched nodes, -1 for a leaf.  Per searched node: its
    class counts, split (``feature`` -1 for none), threshold and its
    children's class counts."""
    kept = np.flatnonzero(kept_tree)
    first = log.add(kept, np.zeros(kept.size, dtype=np.intp))
    node_id = np.full(keep.size, -1, dtype=np.intp)
    kept_root = root[kept]
    node_id[kept_root[kept_root >= 0]] = first + np.flatnonzero(kept_root >= 0)
    log.close(first + np.flatnonzero(kept_root < 0), root_counts[kept[kept_root < 0]])
    # Split j's children get the ids child_first[j] and child_first[j] + 1.
    split = np.flatnonzero(keep & (feature >= 0))  # parents before children
    child_first = log.add(np.repeat(last.tree[split], 2), np.repeat(last.depth[split] + 1, 2))
    child_first += 2 * np.arange(split.size)
    child_ids = child_first[:, None] + np.arange(2)
    child = last.child[split]
    node_id[child[child >= 0]] = child_ids[child >= 0]
    unsplit = np.flatnonzero(keep & (feature < 0))
    log.close(node_id[unsplit], counts[unsplit])
    log.close(child_ids[child < 0], child_counts[split][child < 0])
    depth = last.depth[split]
    for level in np.unique(depth).tolist():  # parents before children
        at = depth == level
        log.splits.append(
            (node_id[split[at]], feature[split[at]], threshold[split[at]], child_first[at])
        )


def _replay(
    trees: list[DecisionTreeClassifier],
    data: _BinnedX,
    y: np.ndarray,
    n_classes: int,
    samples: np.ndarray,
    tape: _FeatureTape,
    last: _GrowRecord | _GrowRounds,
    last_codes: np.ndarray,
    last_y: np.ndarray,
    p: int,
) -> tuple[_NodeLog, _GrowRecord]:
    """:func:`_grow`, started from ``last``, the split
    searches of a fit of the same trees on the same samples and tape whose
    codes ``last_codes`` and labels ``last_y`` (in ``data``'s binning)
    equal this fit's in the first ``p`` rows.  Returns the log of the
    trees' nodes and the record of this fit's searches.

    Every node ``last`` searched gets the counts it holds if its tree
    makes ``last``'s decisions: the recorded counts, less those of the
    last fit's rows from ``p`` on, plus those of this fit's rows from
    ``p`` on, each row routed through the recorded splits.  One
    :func:`_score_splits` call scores every node.  A tree keeps the
    record's shape, with this fit's thresholds and leaf values, when
    every node searches the children it searched before and splits on
    the recorded feature and code; a node whose children neither fit
    searches may split anew, since that moves no other node's rows or
    tape row.  The other trees grow again with :func:`_grow`.  The counts
    are integers and every float comes from them as in :func:`_grow`, so
    the trees are bit-identical to a fit that grows them all.
    """
    params = trees[0]
    if isinstance(last, _GrowRounds):
        last = last.record(data)
    c = n_classes
    n_trees, n_searched = len(trees), last.tree.size
    tail = y.size - p
    # Every tree's sample rows from p on, twice: as the last fit's rows
    # (columns below ``tail`` of ``codes``) and as this fit's.
    sample = samples.ravel()
    at = np.flatnonzero(sample >= p)
    row_tree, col = at // y.size, sample[at] - p
    row_tree, col = np.concatenate((row_tree, row_tree)), np.concatenate((col, col + tail))
    codes = np.concatenate((last_codes[:, p:], data.codes[:, p:]), axis=1)
    labels = np.concatenate((last_y[p:], y[p:]))
    root_counts = last.root_counts + _signed_counts(
        row_tree * c + labels[col], col >= tail, n_trees * c
    ).reshape(n_trees, c)
    # Walk the rows down the recorded splits, noting every searched node
    # they pass.
    root = np.full(n_trees, -1, dtype=np.intp)
    at_root = np.flatnonzero(last.depth == 0)
    root[last.tree[at_root]] = at_root
    node = root[row_tree]
    node, col = node[node >= 0], col[node >= 0]
    passed, passed_col = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    while node.size:
        passed.append(node)
        passed_col.append(col)
        split = last.feature[node] >= 0
        node, col = node[split], col[split]
        right = codes[last.feature[node], col] > last.code[node]
        node = last.child.ravel()[2 * node + right]
        node, col = node[node >= 0], col[node >= 0]
    node, col = np.concatenate(passed), np.concatenate(passed_col)
    label, add = labels[col], col >= tail
    counts = last.counts + _signed_counts(node * c + label, add, n_searched * c).reshape(
        n_searched, c
    )
    # The passed nodes' keys, laid out as one round of every searched node.
    slot_bins = data.n_bins[last.features]
    starts = np.cumsum(slot_bins.ravel()).reshape(slot_bins.shape) - slot_bins
    keys = starts[node]
    keys += codes.ravel()[last.features[node] * codes.shape[1] + col[:, None]]
    keys *= c
    keys += label[:, None]
    keys = keys.ravel()
    add = np.repeat(add, slot_bins.shape[1])
    node_bins = slot_bins.sum(axis=1)
    node_end = np.cumsum(node_bins)
    node_start = node_end - node_bins
    n_bins = int(node_end[-1]) if n_searched else 0
    hist = _merged_counts(
        node_start[last.cell_node] + last.cell_bin, last.cell_hist, keys, add, n_bins, c
    )
    splits = _score_splits(
        data,
        *hist,
        counts,
        last.features,
        criterion=params.criterion,
        min_samples_leaf=params.min_samples_leaf,
    )
    feature = np.full(n_searched, -1, dtype=np.intp)
    feature[splits.node] = splits.feature
    code = np.full(n_searched, -1, dtype=np.intp)
    code[splits.node] = splits.code
    threshold = np.zeros(n_searched)
    threshold[splits.node] = splits.threshold
    child_counts = np.zeros((n_searched, 2, c), dtype=np.intp)
    child_counts[splits.node, 0] = splits.left
    child_counts[splits.node, 1] = counts[splits.node] - splits.left
    child_leaf = _is_leaf(
        child_counts.reshape(2 * n_searched, c), np.repeat(last.depth + 1, 2), params
    ).reshape(n_searched, 2)
    searched = ~child_leaf & (feature >= 0)[:, None]
    # A node may split anew where neither fit searches its children: no
    # other node's rows or tape row moves.
    differs = (searched != (last.child >= 0)).any(axis=1)
    differs |= ((feature != last.feature) | (code != last.code)) & searched.any(axis=1)
    regrow = _is_leaf(root_counts, np.zeros(n_trees, dtype=np.intp), params) == (root >= 0)
    regrow[last.tree[differs]] = True
    grown = np.flatnonzero(regrow)
    if grown.size:
        log, grown_record = _grow(
            [trees[t] for t in grown],
            data,
            y,
            c,
            [samples[t] for t in grown],
            tape,
            tree_ids=grown,
        )
    else:
        log, grown_record = _NodeLog(), None
    keep = ~regrow[last.tree]
    _log_kept(
        log, last, root, ~regrow, keep, root_counts, counts, feature, threshold, child_counts
    )
    cell_node = np.searchsorted(node_end, hist[0], side="right")
    record = replace(
        last,
        feature=feature,
        code=code,
        counts=counts,
        cell_node=cell_node,
        cell_bin=hist[0] - node_start[cell_node],
        cell_hist=hist[1],
        root_counts=root_counts,
    ).select(keep)
    return log, record if grown_record is None else record.join(grown_record.record(data))


def _write_trees(
    trees: list[DecisionTreeClassifier],
    n_classes: int,
    d: int,
    log: _NodeLog,
) -> _ForestNodes:
    """Give each tree its node arrays, its nodes numbered in pre-order,
    from the nodes ``log`` holds in creation order (tree ``t`` of the log
    is ``trees[t]``); return all of them in one set."""
    tree_of = np.concatenate(log.tree)
    depth_of = np.concatenate(log.depth)
    split_log = log.splits
    n_nodes = tree_of.size
    value = np.zeros((n_nodes, n_classes))
    value[np.concatenate(log.leaf_ids)] = np.concatenate(log.leaf_values)
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
        owned = not isinstance(self.random_state, np.random.Generator)
        tape = _FeatureTape([rng], d, _n_split_features(self.max_features, d), owned=owned)
        log, _ = _grow([self], _BinnedX.from_array(X), y, n_classes, [rows], tape)
        _write_trees([self], n_classes, d, log)
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
