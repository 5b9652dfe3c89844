"""Random forest classifier built on :class:`~repro.models.tree.DecisionTreeClassifier`.

Matches the paper's configuration surface: scikit-learn defaults except
``max_depth=3``.  Bootstrap sampling plus per-split feature subsampling
(``max_features="sqrt"``), probabilities averaged across trees.

Each tree draws its bootstrap sample, then the features of each split,
from its own child stream of the forest's seed.  With an integer
``random_state`` those draws depend only on the seed and the shape of
the fit, so a fit keeps them for the next fit of the same shape: the
memo is keyed by ``(seed, n_estimators, rows, features, features per
split, bootstrap)`` and holds the last :data:`_MEMO_KEYS` keys.  An entry
holds every tree's bootstrap sample (read-only, one row per tree) and a
:class:`~repro.models.tree._FeatureTape` of its feature draws, which a
fit extends from the tree's own generator only when it needs a draw past
its end.  The samples take ``n_estimators * rows * 8`` bytes (464 KB for
the paper's 50 trees on 1160 car rows); the tapes are a few rows of
``features per split`` per tree.  A ``Generator`` or ``None`` seed draws
afresh on every fit and is never kept.

A fit that misses the memo (the first fit of a seed, and in the edit
loop every fit after an accepted batch, whose rows outnumber the last
fit's) still starts from what the memo holds.  An entry keeps the child
``SeedSequence`` of each tree, which depend only on the seed and the
tree count, so a new shape of the same seed and tree count spawns none.
And the fit codes its columns by extending the binning of the most
recently used entry's last fit (:meth:`~repro.models.tree._BinnedX.extend`)
from the first row that differs, where the columns and their distinct
values are the same and every value keeps a row; otherwise it codes them
afresh.  The trees are those a fit that keeps nothing grows.

An entry also keeps the key's last fit (:class:`_LastFit`): a copy of
its ``y``, its column binning, which gives its ``X`` back, and the
record of its split searches (see :func:`~repro.models.tree._replay`),
one record per key, replaced whole by each fit so that a fit in another
thread reads one fit's record.  That is the codes of ``X`` plus the
searched nodes' counts, about 0.37 MB at car size.  After a rejected batch the edit loop refits
on as many rows as before, the earlier rows unchanged: such a fit reads
the memo's draws instead of drawing again and, where its columns keep
their distinct values, replays the last fit from its first changed row,
counting only the rows from there on and growing again only the trees
whose splits change.  The trees are bit-identical to a fit that draws
and grows everything.

``predict_proba`` walks all trees at once over their concatenated node
arrays (:class:`~repro.models.tree._ForestNodes`) and adds the trees'
leaf rows in tree order with one reduction, in blocks of rows that keep
the temporaries near ``_WALK_CELLS`` entries.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.models.tree import (
    DecisionTreeClassifier,
    _BinnedX,
    _check_tree_params,
    _FeatureTape,
    _ForestNodes,
    _grow,
    _GrowRecord,
    _GrowRounds,
    _leaf_walk,
    _n_split_features,
    _replay,
    _write_trees,
)
from repro.utils.rng import RandomState, check_random_state
from repro.utils.validation import check_fit_inputs, check_predict_input

#: How many fit shapes the draw memo keeps, the most recently used.
_MEMO_KEYS = 2
#: Trees times rows per block of the all-trees predict walk.
_WALK_CELLS = 1 << 15


@dataclass(frozen=True)
class _LastFit:
    """The last fit of a memo key: its labels and binned columns, and the
    record of its split searches."""

    y: np.ndarray
    data: _BinnedX
    record: _GrowRecord | _GrowRounds


@dataclass
class _ForestDraws:
    """What the trees of one fit draw: their samples, tree ``t``'s in row
    ``t``, and feature tape, from the streams of ``seeds``; in the memo,
    also the key's last fit."""

    samples: np.ndarray
    tape: _FeatureTape
    seeds: list[np.random.SeedSequence]
    last: _LastFit | None = None


_memo: OrderedDict[tuple, _ForestDraws] = OrderedDict()
_memo_lock = threading.Lock()


def _draw(
    seeds: list[np.random.SeedSequence], n: int, d: int, m: int, bootstrap: bool
) -> _ForestDraws:
    """Draw each tree's sample from its stream, one per seed."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    if bootstrap:
        samples = np.stack([tree_rng.integers(0, n, size=n) for tree_rng in rngs])
        samples.flags.writeable = False
    else:  # read-only
        samples = np.broadcast_to(np.arange(n, dtype=np.intp), (len(seeds), n))
    return _ForestDraws(samples, _FeatureTape(rngs, d, m, owned=True), seeds)


def _forest_draws(
    random_state: RandomState, n_trees: int, n: int, d: int, m: int, bootstrap: bool
) -> tuple[_ForestDraws, _BinnedX | None]:
    """The draws of a fit: the memo's for an integer seed, else fresh; and,
    when the memo has no entry for the fit, the binning of the last fit
    of its most recently used entry, which the fit may start from."""
    if not isinstance(random_state, (int, np.integer)):
        seeds = check_random_state(random_state).bit_generator.seed_seq.spawn(n_trees)
        return _draw(seeds, n, d, m, bootstrap), None
    key = (int(random_state), n_trees, n, d, m, bootstrap)
    with _memo_lock:
        draws = _memo.get(key)
        if draws is not None:
            _memo.move_to_end(key)
            return draws, None
        # Another shape of the same seed and tree count spawned the same
        # streams.
        seeds = next((e.seeds for k, e in _memo.items() if k[:2] == key[:2]), None)
        recent = next(reversed(_memo.values())).last if _memo else None
        recent = None if recent is None else recent.data
    if seeds is None:
        seeds = np.random.SeedSequence(key[0]).spawn(n_trees)
    draws = _draw(seeds, n, d, m, bootstrap)
    with _memo_lock:
        # A fit of the same key in another thread may have stored its own.
        draws = _memo.setdefault(key, draws)
        _memo.move_to_end(key)
        while len(_memo) > _MEMO_KEYS:
            _memo.popitem(last=False)
    return draws, recent


def _shared_rows(data: _BinnedX, X: np.ndarray) -> int:
    """How many leading rows of ``X`` equal those that ``data`` codes."""
    k = min(data.codes.shape[1], X.shape[0])
    differs = (data.values[data.codes[:, :k] + data.first[:, None]] != X[:k].T).any(axis=0)
    return int(np.argmax(differs)) if differs.any() else k


def _binned(X: np.ndarray, other: _BinnedX | None) -> _BinnedX:
    """The binning of ``X``: ``other`` extended from its first differing
    row where ``X`` keeps its columns and their distinct values, else
    coded afresh."""
    if other is not None and other.codes.shape[0] == X.shape[1]:
        data = other.extend(X, _shared_rows(other, X))
        if data is not None:
            return data
    return _BinnedX.from_array(X)


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
        self._nodes: _ForestNodes | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, *, n_classes: int | None = None) -> "RandomForestClassifier":
        X, y, n_classes = check_fit_inputs(X, y, n_classes, model="tree")
        self.n_classes_ = n_classes
        n, d = X.shape
        self.n_features_in_ = d
        m = _n_split_features(self.max_features, d)
        draws, recent = _forest_draws(
            self.random_state, self.n_estimators, n, d, m, self.bootstrap
        )
        # The trees' draws live in ``draws``, not in the trees.
        self.trees_ = [
            DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                criterion=self.criterion,
            )
            for _ in range(self.n_estimators)
        ]
        # Code the columns once and grow every tree on a row sample of them.
        # A refit of the memo key's last fit whose columns keep their
        # distinct values replays that fit from its first changed row.
        # A fit that does not replay starts from the binning of the key's
        # last fit or, on a memo miss, of the most recent fit.
        last, data = draws.last, None
        other = last.data if last is not None else recent
        if last is not None and last.record.root_counts.shape[1] == n_classes:
            p = _shared_rows(last.data, X)
            changed = np.flatnonzero(last.y[:p] != y[:p])
            p = int(changed[0]) if changed.size else p
            data = last.data.extend(X, p)
            other = None  # its binning does not extend
        if data is None:
            data = _binned(X, other)
            log, record = _grow(self.trees_, data, y, n_classes, draws.samples, draws.tape)
        else:
            log, record = _replay(
                self.trees_,
                data,
                y,
                n_classes,
                draws.samples,
                draws.tape,
                last.record,
                last.data.codes,
                last.y,
                p,
            )
        self._nodes = _write_trees(self.trees_, n_classes, d, log)
        # Replaced whole, so that a fit in another thread reads one fit's record.
        draws.last = _LastFit(y.copy(), data, record)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        nodes = self._nodes
        if nodes is None or self.n_classes_ is None:
            raise RuntimeError("RandomForestClassifier is not fitted")
        X = check_predict_input(X, self.n_features_in_)
        Xf, row_base = X.ravel(), np.arange(X.shape[0]) * X.shape[1]
        n_trees = nodes.roots.size
        block = max(1, _WALK_CELLS // n_trees)
        proba = np.empty((X.shape[0], self.n_classes_))
        for lo in range(0, X.shape[0], block):
            # leaves[t, i]: the leaf of row lo + i in tree t.  The sum over
            # axis 0 adds the trees' leaf rows in tree order.
            leaves = _leaf_walk(
                Xf,
                row_base[lo : lo + block],
                nodes.feature,
                nodes.threshold,
                nodes.children,
                nodes.depth,
                roots=nodes.roots,
            )
            nodes.value.take(leaves, axis=0).sum(axis=0, out=proba[lo : lo + block])
        proba /= n_trees
        return proba

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1).astype(np.int64)
