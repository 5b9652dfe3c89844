"""Parity pins: vectorized hot paths reproduce the seed row-loop outputs.

Every vectorized implementation was designed to consume the RNG stream in
exactly the order its seed row-loop predecessor did, so under a fixed seed
the outputs must match **bit-for-bit** — not approximately.  The seed
implementations live in ``seed_reference.py`` next to this file.
"""

import numpy as np
import pytest
import seed_reference as seed_ref
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.models.tree as tree_module
from repro.data import Table, TabularEncoder, make_schema
from repro.data.builder import TableBuilder
from repro.data.shards import SpillPolicy
from repro.models import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
    softmax,
)
from repro.models.boosting import _Binner, _HistTreeBuilder
import repro.neighbors.brute as brute
from repro.neighbors.brute import _topk_from_dists, _topk_from_sq
from repro.neighbors.distance import MixedMetric, sq_euclidean
from repro.rules import Predicate
from repro.sampling import (
    SMOTE,
    RuleConstrainedGenerator,
    classify_borderline,
    majority_categorical_batch,
    pick_categorical_batch,
    sample_in_window_batch,
)
from repro.sampling.borderline import DEFAULT_WEIGHTS
from repro.sampling.rule_generation import NumericWindow
from repro.rules import FeedbackRule, clause


# Values for squared-distance matrices that tie before or after the map
# sqrt(maximum(sq, 0)): exact duplicates, signed zeros, negative residue
# that clips to the same zero, and the non-finite entries.
_SQ_PALETTE = [0.0, -0.0, -1e-17, -3e-17, 1e-300, 0.25, 0.5, 1.0, 2.0,
               np.inf, -np.inf, np.nan]


@st.composite
def sq_matrices(draw):
    n_q = draw(st.integers(0, 6))
    n_x = draw(st.integers(1, 9))
    vals = draw(
        st.lists(st.sampled_from(_SQ_PALETTE) | st.floats(0.0, 4.0),
                 min_size=n_q * n_x, max_size=n_q * n_x)
    )
    return np.array(vals, dtype=np.float64).reshape(n_q, n_x)


class TestTopKParity:
    def _dist_matrix(self, seed, n_q=60, n_x=80, with_self=True):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n_x, 3))
        Q = X[:n_q] if with_self else rng.uniform(0, 1, size=(n_q, 3))
        # Duplicate some rows to exercise zero-distance ties.
        X[1] = X[0]
        diff = Q[:, None, :] - X[None, :, :]
        return np.sqrt((diff**2).sum(-1))

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 79, 200])
    def test_bit_for_bit(self, k, exclude_self):
        D = self._dist_matrix(0)
        sd, si = seed_ref.seed_topk_from_dists(D, k, exclude_self=exclude_self)
        cd, ci = _topk_from_dists(D, k, exclude_self=exclude_self)
        np.testing.assert_array_equal(sd, cd)
        np.testing.assert_array_equal(si, ci)

    def test_queries_not_in_fitted_set(self):
        D = self._dist_matrix(1, with_self=False)
        sd, si = seed_ref.seed_topk_from_dists(D, 5, exclude_self=True)
        cd, ci = _topk_from_dists(D, 5, exclude_self=True)
        np.testing.assert_array_equal(sd, cd)
        np.testing.assert_array_equal(si, ci)

    # The min-sweep selection on squared distances must equal the seed's
    # argpartition selection on sqrt(maximum(SQ, 0)), bit for bit.

    @pytest.fixture
    def fallback_rows(self, monkeypatch):
        """Rows handed to argpartition, one entry per call."""
        rows = []
        real = brute._sorted_topk

        def spy(D, k_eff):
            rows.append(D.shape[0])
            return real(D, k_eff)

        monkeypatch.setattr(brute, "_sorted_topk", spy)
        return rows

    @pytest.fixture
    def sweep_always(self, monkeypatch):
        """Open the size and k gate so small matrices are swept."""
        monkeypatch.setattr(brute, "SWEEP_MIN_CELLS", 0)
        monkeypatch.setattr(brute, "SWEEP_MAX_K", 10**6)

    @staticmethod
    def _check(SQ, k, exclude_self):
        D = np.sqrt(np.maximum(SQ, 0.0))
        sd, si = seed_ref.seed_topk_from_dists(D, k, exclude_self=exclude_self)
        work = SQ.copy()
        cd, ci = _topk_from_sq(work, k, exclude_self=exclude_self)
        np.testing.assert_array_equal(sd, cd)
        np.testing.assert_array_equal(si, ci)
        assert cd.dtype == sd.dtype and ci.dtype == si.dtype
        return work

    @staticmethod
    def _euclidean(seed, n_q=40, n_x=60, with_self=True):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, size=(n_x, 3))
        Q = X[:n_q] if with_self else rng.uniform(0, 1, size=(n_q, 3))
        return X, Q

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_tie_free_rows_all_swept(self, sweep_always, fallback_rows, k, exclude_self):
        X, Q = self._euclidean(0, with_self=False)
        SQ = sq_euclidean(Q, X)
        work = self._check(SQ, k, exclude_self)
        assert fallback_rows == []  # every row answered by the sweeps
        # The masked entries were restored in place.
        np.testing.assert_array_equal(work, SQ)

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_duplicate_rows_take_both_branches(self, sweep_always, fallback_rows, exclude_self):
        X, _ = self._euclidean(1)
        X[1] = X[0]
        X[7] = X[6]
        SQ = sq_euclidean(X[:40], X)
        work = self._check(SQ, 5, exclude_self)
        assert len(fallback_rows) == 1
        assert 0 < fallback_rows[0] < SQ.shape[0]
        np.testing.assert_array_equal(work, SQ)

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_all_categorical_heom_ties_every_row(self, sweep_always, fallback_rows, exclude_self):
        rng = np.random.default_rng(2)
        codes = rng.integers(0, 3, size=(50, 4)).astype(np.float64)
        SQ = MixedMetric(np.ones(4, dtype=bool)).pairwise_sq(codes, codes)
        assert np.array_equal(SQ, np.round(SQ))  # integer squared distances
        self._check(SQ, 5, exclude_self)
        assert fallback_rows == [SQ.shape[0]]  # stopped early, one call

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_negative_residue_near_zero(self, sweep_always, fallback_rows, exclude_self):
        rng = np.random.default_rng(3)
        SQ = rng.uniform(0.1, 1.0, size=(30, 50))
        # Distinct squared values that all clip to a zero distance tie.
        SQ[::2, 3] = -1e-17
        SQ[::2, 9] = -3e-17
        SQ[1::4, 4] = -2e-16  # one residue per row: no tie
        self._check(SQ, 4, exclude_self)
        assert fallback_rows == [15]

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_nan_and_inf_entries(self, sweep_always, fallback_rows, exclude_self):
        rng = np.random.default_rng(4)
        SQ = rng.uniform(0.0, 1.0, size=(20, 12))
        SQ[0, 5] = np.nan
        SQ[1, :] = np.nan
        SQ[2, 2:] = np.inf  # two finite entries, then only +inf
        SQ[3, 0] = SQ[3, 7] = -np.inf
        SQ[4, 3] = np.inf
        work = self._check(SQ, 3, exclude_self)
        assert 0 < sum(fallback_rows) < SQ.shape[0]
        np.testing.assert_array_equal(work, SQ)

    @pytest.mark.parametrize("exclude_self", [False, True])
    @pytest.mark.parametrize("n_q, n_x, k", [
        (10, 6, 6),   # k == n_x
        (10, 6, 20),  # k > n_x
        (10, 6, 5),   # k_eff == n_x - 1 with exclude_self=False
        (10, 6, 4),   # k_eff == n_x - 1 with exclude_self=True
        (0, 6, 3),    # no queries
        (5, 1, 1),
    ])
    def test_edge_shapes(self, sweep_always, fallback_rows, n_q, n_x, k, exclude_self):
        rng = np.random.default_rng(5)
        self._check(rng.uniform(0, 1, size=(n_q, n_x)), k, exclude_self)

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_default_gate_both_branches(self, fallback_rows, exclude_self):
        """At the default gate a large enough matrix is swept, and its
        tied rows still go to argpartition."""
        X, _ = self._euclidean(6, n_x=140)
        X[1] = X[0]
        SQ = sq_euclidean(X[:120], X)
        assert SQ.size >= brute.SWEEP_MIN_CELLS
        self._check(SQ, 5, exclude_self)
        assert len(fallback_rows) == 1 and 0 < fallback_rows[0] < SQ.shape[0]

    def test_default_gate_small_or_large_k(self, fallback_rows):
        X, Q = self._euclidean(7, with_self=False)
        self._check(sq_euclidean(Q, X), 5, False)  # below SWEEP_MIN_CELLS
        X, Q = self._euclidean(7, n_q=140, n_x=140)
        self._check(sq_euclidean(Q, X), brute.SWEEP_MAX_K + 1, False)
        assert fallback_rows == [40, 140]  # argpartition on every row

    @settings(max_examples=300, deadline=None)
    @given(SQ=sq_matrices(), k=st.integers(1, 10), exclude_self=st.booleans())
    def test_property(self, SQ, k, exclude_self):
        saved = brute.SWEEP_MIN_CELLS, brute.SWEEP_MAX_K
        brute.SWEEP_MIN_CELLS, brute.SWEEP_MAX_K = 0, 10**6
        try:
            self._check(SQ, k, exclude_self)
        finally:
            brute.SWEEP_MIN_CELLS, brute.SWEEP_MAX_K = saved


class TestMajorityParity:
    @pytest.mark.parametrize("n_cats,k", [(2, 2), (3, 5), (6, 4)])
    def test_bit_for_bit_including_ties(self, n_cats, k):
        rng = np.random.default_rng(3)
        codes = rng.integers(0, n_cats, size=(500, k))
        a = seed_ref.seed_majority_batch(codes, np.random.default_rng(7))
        b = majority_categorical_batch(codes, n_cats, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


WINDOWS = [
    NumericWindow(lo=0.3, hi=0.7),
    NumericWindow(lo=0.3, hi=0.7, lo_strict=True, hi_strict=True),
    NumericWindow(eq=0.5),
    NumericWindow(lo=5.0, hi=9.0),      # entirely outside the sampled data
    NumericWindow(lo=5.0),              # half-open, outside observed range
    NumericWindow(hi=-5.0),             # half-open below
    NumericWindow(lo=0.5, hi=0.5),      # degenerate point window
]


class TestWindowParity:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bit_for_bit(self, window):
        rng = np.random.default_rng(11)
        base = rng.uniform(0, 1, size=400)
        nbr = rng.uniform(0, 1, size=400)
        a = seed_ref.seed_sample_in_window_batch(
            window, base, nbr, (0.0, 1.0), np.random.default_rng(5)
        )
        b = sample_in_window_batch(
            window, base, nbr, (0.0, 1.0), np.random.default_rng(5)
        )
        np.testing.assert_array_equal(a, b)


class TestPickCategoricalParity:
    CATS = ("a", "b", "c")

    @pytest.mark.parametrize(
        "conds",
        [
            (),
            (Predicate("c", "!=", "a"),),
            (Predicate("c", "==", "b"),),
            (Predicate("c", "!=", "a"), Predicate("c", "!=", "b")),
        ],
    )
    def test_bit_for_bit(self, conds):
        rng = np.random.default_rng(13)
        codes = rng.integers(0, 2, size=(400, 5))  # never observes 'c':
        a = seed_ref.seed_pick_categorical_batch(
            codes, conds, self.CATS, np.random.default_rng(9)
        )
        b = pick_categorical_batch(codes, conds, self.CATS, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestSmoteGenerateParity:
    def test_bit_for_bit(self, mixed_table):
        a = seed_ref.seed_smote_generate(
            mixed_table, 120, k=5, rng=np.random.default_rng(21)
        )
        b = SMOTE(5).generate(mixed_table, 120, rng=np.random.default_rng(21))
        for name in mixed_table.schema.names:
            np.testing.assert_array_equal(a.column(name), b.column(name))


class TestBorderlineWeightsParity:
    def test_weight_vector_matches_seed_mapping(self, mixed_table):
        labels = (mixed_table.column("age") < 45).astype(np.int64)
        analysis = classify_borderline(mixed_table, labels, k=7)
        np.testing.assert_array_equal(
            analysis.weights,
            seed_ref.seed_borderline_weights(analysis.categories, DEFAULT_WEIGHTS),
        )


class TestGeneratorIndexCache:
    def _gen_and_pool(self, mixed_table):
        rule = FeedbackRule.deterministic(
            clause(
                Predicate("age", "<", 50.0), Predicate("marital", "==", "single")
            ),
            1,
            2,
        )
        gen = RuleConstrainedGenerator(rule, mixed_table, k=5)
        pool = mixed_table.loc_mask(rule.coverage_mask(mixed_table))
        return gen, pool

    def test_cached_index_reproduces_uncached_output(self, mixed_table):
        gen_a, pool = self._gen_and_pool(mixed_table)
        gen_b, _ = self._gen_and_pool(mixed_table)
        positions = np.arange(min(15, pool.n_rows))
        # Uncached: every call refits.  Cached: second call reuses the fit.
        _ = gen_a.generate(pool, positions, np.random.default_rng(1), cache_token=7)
        a = gen_a.generate(pool, positions, np.random.default_rng(2), cache_token=7)
        assert gen_a._index_cache is not None
        b = gen_b.generate(pool, positions, np.random.default_rng(2))
        for name in mixed_table.schema.names:
            np.testing.assert_array_equal(a.table.column(name), b.table.column(name))
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_token_change_invalidates(self, mixed_table):
        gen, pool = self._gen_and_pool(mixed_table)
        positions = np.arange(min(10, pool.n_rows))
        gen.generate(pool, positions, np.random.default_rng(0), cache_token=1)
        first = gen._index_cache
        smaller = pool.take(np.arange(pool.n_rows // 2))
        out = gen.generate(smaller, positions[:3], np.random.default_rng(0), cache_token=2)
        assert gen._index_cache is not first
        assert out.n == 3


@st.composite
def cart_training_sets(draw):
    """Small training sets whose columns tie heavily, are continuous, mix
    -0.0 with 0.0, or copy the previous column (so that two features tie
    on every gain and only the scan order decides).  From eight classes
    up, NumPy sums each row of class counts pairwise.  Up to 60 rows, most
    rounds have more histogram cells than keys and count by sorting; the
    larger sets give binary columns more rows than 2 * n_classes cells,
    which rounds count densely."""
    n = draw(st.integers(min_value=2, max_value=60) | st.integers(min_value=61, max_value=240))
    kinds = draw(
        st.lists(
            st.sampled_from(["binary", "ties", "continuous", "signed_zero", "copy"]),
            min_size=1,
            max_size=6,
        )
    )
    n_classes = draw(st.integers(min_value=2, max_value=10))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cols: list[np.ndarray] = []
    for kind in kinds:
        if kind == "copy" and cols:
            cols.append(cols[-1].copy())
        elif kind == "ties":
            cols.append(rng.integers(-2, 3, n) * 0.5)
        elif kind == "continuous":
            cols.append(rng.normal(size=n))
        elif kind == "signed_zero":
            cols.append(rng.choice([-0.0, 0.0, 1.0, -1.0], n))
        else:
            cols.append(rng.integers(0, 2, n).astype(np.float64))
    return np.column_stack(cols), rng.integers(0, n_classes, n), n_classes


cart_params = st.fixed_dictionaries(
    {
        "max_depth": st.sampled_from([None, 1, 3]),
        "min_samples_leaf": st.integers(min_value=1, max_value=4),
        "max_features": st.sampled_from([None, "sqrt", 1, 2]),
        "criterion": st.sampled_from(["gini", "entropy"]),
        "random_state": st.integers(min_value=0, max_value=2**31 - 1),
    }
)


def _node_list(tree: DecisionTreeClassifier) -> list[tuple]:
    """Each node as (feature, threshold bytes, left, right, leaf class
    distribution bytes); a leaf's feature and children are -1, its
    threshold 0.0, and a split has no distribution.  A seed tree holds
    :class:`_TreeNode` objects, a current tree flat arrays whose leaves
    are the nodes that are their own children and whose splits hold rows
    of zeros."""
    if isinstance(tree, seed_ref.SeedSplitTree):
        return [
            (
                node.feature,
                np.float64(node.threshold).tobytes(),
                node.left,
                node.right,
                None if node.proba is None else node.proba.tobytes(),
            )
            for node in tree.nodes_
        ]
    nodes = []
    for i in range(tree.n_nodes):
        left, right = tree.children_[2 * i : 2 * i + 2].tolist()
        value = tree.value_[i]
        if left == right == i:
            nodes.append((-1, np.float64(0.0).tobytes(), -1, -1, value.tobytes()))
        else:
            nodes.append(
                (
                    int(tree.feature_[i]),
                    tree.threshold_[i].tobytes(),
                    left,
                    right,
                    value.tobytes() if value.any() else None,
                )
            )
    return nodes


def _query_rows(X: np.ndarray, trees: list[seed_ref.SeedSplitTree]) -> np.ndarray:
    """Copies of the rows of ``X``, one block per (column, value), with
    the column set to the value: every fitted threshold of ``trees`` and
    its ``np.nextafter`` neighbours, and ±0.0 and values outside the
    training range in every column."""
    settings = [
        (node.feature, value)
        for tree in trees
        for node in tree.nodes_
        if node.feature >= 0
        for value in (
            node.threshold,
            np.nextafter(node.threshold, -np.inf),
            np.nextafter(node.threshold, np.inf),
        )
    ]
    outside = (X.min() - 1.0, X.max() + 1.0, -1e300, 1e300)
    settings += [(f, v) for f in range(X.shape[1]) for v in (0.0, -0.0, *outside)]
    Q = np.tile(X, (len(settings), 1))
    for block, (f, v) in enumerate(settings):
        Q[block * X.shape[0] : (block + 1) * X.shape[0], f] = v
    return Q


def _car_shaped(n_rows: int, n_continuous: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A matrix shaped like the car data: six categorical attributes of
    four or three levels one-hot coded into 21 columns, four imbalanced
    classes driven by two of them with label noise, and ``n_continuous``
    normal columns appended."""
    rng = np.random.default_rng(seed)
    levels = (4, 4, 4, 3, 3, 3)
    cats = [rng.integers(0, k, n_rows) for k in levels]
    onehot = [np.eye(k)[c] for k, c in zip(levels, cats)]
    X = np.concatenate([*onehot, rng.normal(size=(n_rows, n_continuous))], axis=1)
    score = (3 - cats[0]) + cats[5] + rng.integers(-1, 2, n_rows)
    return X, np.clip(score - 2, 0, 3)


def _count_calls(monkeypatch, module, name: str, calls: dict) -> None:
    """Count the calls of ``module.name`` into ``calls[name]``."""
    real = getattr(module, name)

    def counted(*args):
        calls[name] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counted)


class TestCartSplitParity:
    """The lockstep grower with its batched histogram split search grows
    the trees the seed's recursive builder and per-feature argsort search
    grow: same (feature, threshold) bits, same node ids, same leaves."""

    @settings(max_examples=80, deadline=None)
    @given(data=cart_training_sets(), params=cart_params)
    def test_tree_bit_for_bit(self, data, params):
        X, y, n_classes = data
        current = DecisionTreeClassifier(**params).fit(X, y, n_classes=n_classes)
        seed = seed_ref.SeedSplitTree(**params).fit(X, y, n_classes=n_classes)
        assert _node_list(current) == _node_list(seed)
        for Q in (X, _query_rows(X, [seed])):
            assert current.predict_proba(Q).tobytes() == seed.predict_proba(Q).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        data=cart_training_sets(),
        params=cart_params,
        forest_params=st.fixed_dictionaries(
            {
                "n_estimators": st.sampled_from([1, 3, 8]),
                "bootstrap": st.booleans(),
                "min_samples_split": st.integers(min_value=2, max_value=6),
            }
        ),
    )
    def test_forest_bit_for_bit(self, data, params, forest_params):
        """Trees grown in lockstep match trees grown one by one, each node
        in turn."""
        X, y, n_classes = data
        current = RandomForestClassifier(**forest_params, **params).fit(
            X, y, n_classes=n_classes
        )
        seed = seed_ref.SeedSplitForest(**forest_params, **params).fit(
            X, y, n_classes=n_classes
        )
        assert [_node_list(t) for t in current.trees_] == [
            _node_list(t) for t in seed.trees_
        ]
        for Q in (X, _query_rows(X, seed.trees_)):
            assert current.predict_proba(Q).tobytes() == seed.predict_proba(Q).tobytes()

    @pytest.mark.parametrize("n_continuous", [0, 4])
    def test_paper_forest_bit_for_bit(self, n_continuous, monkeypatch):
        """The paper's forest (50 trees of depth 3 on sqrt features) on a
        car-shaped one-hot matrix, whose rounds count densely across many
        trees, and with continuous columns added, whose many distinct
        values send the deeper rounds down the sorted path."""
        X, y = _car_shaped(640, n_continuous, seed=11)
        calls = {"_dense_counts": 0, "_sorted_counts": 0}
        for name in calls:
            _count_calls(monkeypatch, tree_module, name, calls)
        params = {"n_estimators": 50, "max_depth": 3, "random_state": 5}
        current = RandomForestClassifier(**params).fit(X, y, n_classes=4)
        seed = seed_ref.SeedSplitForest(**params).fit(X, y, n_classes=4)
        assert [_node_list(t) for t in current.trees_] == [
            _node_list(t) for t in seed.trees_
        ]
        for Q in (X, _query_rows(X[:8], seed.trees_)):
            assert current.predict_proba(Q).tobytes() == seed.predict_proba(Q).tobytes()
        assert calls["_dense_counts"] > 0
        assert (calls["_sorted_counts"] > 0) == (n_continuous > 0)


@st.composite
def gbdt_problems(draw):
    """Small boosting problems, binary or multiclass, over columns with
    mixed bin counts — continuous, low-cardinality (two to four values)
    and constant (never split on) — with a drawn ``min_child_samples``,
    and query rows on and beside the bin edges, at ±0.0 and outside the
    training range."""
    n = draw(st.integers(min_value=2, max_value=80))
    d = draw(st.integers(min_value=1, max_value=4))
    n_classes = draw(st.integers(min_value=2, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.normal(size=(n, d))
    columns = draw(
        st.lists(
            st.sampled_from(["continuous", "low-cardinality", "constant"]),
            min_size=d,
            max_size=d,
        )
    )
    for f, column in enumerate(columns):
        if column == "low-cardinality":
            X[:, f] = rng.integers(0, rng.integers(2, 5), n)
        elif column == "constant":
            X[:, f] = 1.5
    if draw(st.booleans()):
        X = np.round(X, 1)  # ties
    y = rng.integers(0, n_classes, n)
    params = draw(
        st.fixed_dictionaries(
            {
                "n_estimators": st.integers(min_value=1, max_value=4),
                "max_depth": st.sampled_from([None, 1, 3]),
                "max_leaves": st.sampled_from([2, 4, 31]),
                "max_bins": st.sampled_from([3, 16, 255]),
                "min_child_samples": st.sampled_from([1, 2, 3, 5, 20]),
            }
        )
    )
    values = np.concatenate(
        [X.ravel(), [0.0, -0.0, X.min() - 1.0, X.max() + 1.0, -1e300, 1e300]]
    )
    Q = rng.choice(values, size=(4 * n, d))
    return X, y, n_classes, params, Q


def _seed_node_arrays(tree: seed_ref.SeedHistTree) -> tuple[np.ndarray, ...]:
    """A seed tree's node list in the live ``_HistTree`` layout: a leaf
    loops to itself with feature and bin threshold 0, a split has value
    0.0."""
    feature, bin_threshold, children, value = [], [], [], []
    for node_id, node in enumerate(tree.nodes):
        if isinstance(node, float):
            feature.append(0)
            bin_threshold.append(0)
            children.extend((node_id, node_id))
            value.append(node)
        else:
            feature.append(node.feature)
            bin_threshold.append(node.bin_threshold)
            children.extend((node.left, node.right))
            value.append(0.0)
    return (
        np.array(feature, dtype=np.intp),
        np.array(bin_threshold, dtype=np.intp),
        np.array(children, dtype=np.intp),
        np.array(value, dtype=np.float64),
    )


class TestBoostingWalkParity:
    """Boosted trees as flat node arrays, walked one level at a time,
    score every row as the seed's node lists walked by a frontier of row
    sets: same nodes and same bits in fit (each round's scores feed the
    next round's gradients) and in prediction."""

    @settings(max_examples=40, deadline=None)
    @given(problem=gbdt_problems())
    def test_bit_for_bit(self, problem):
        X, y, n_classes, params, Q = problem
        current = GradientBoostingClassifier(**params).fit(X, y, n_classes=n_classes)
        seed = seed_ref.SeedFrontierBoosting(**params).fit(X, y, n_classes=n_classes)
        for live_round, seed_round in zip(current.trees_, seed.trees_, strict=True):
            for live, oracle in zip(live_round, seed_round, strict=True):
                live_arrays = (live.feature, live.bin_threshold, live.children, live.value)
                for a, b in zip(live_arrays, _seed_node_arrays(oracle), strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        edges = np.concatenate(current.binner_.edges_)
        beside = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        on_edges = np.repeat(beside[:, None], X.shape[1], axis=1)
        for rows in (X, Q, on_edges):
            for method in ("decision_function", "predict_proba"):
                a = getattr(current, method)(rows)
                b = getattr(seed, method)(rows)
                assert a.tobytes() == b.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(problem=gbdt_problems(), node_seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_best_split_on_drawn_nodes(self, problem, node_seed):
        """The live split search against the seed's on random row subsets
        (nodes), gradients and hessians, with ``min_child_samples`` as
        drawn (a fit caps it at a tenth of the rows)."""
        X, _, _, params, _ = problem
        binner = _Binner(params["max_bins"]).fit(X)
        B = binner.transform(X)
        builder = _HistTreeBuilder(
            binner,
            max_leaves=params["max_leaves"],
            max_depth=params["max_depth"],
            min_child_samples=params["min_child_samples"],
            reg_lambda=1.0,
            min_gain=1e-12,
        )
        rng = np.random.default_rng(node_seed)
        n = X.shape[0]
        g = np.round(rng.normal(size=n), 1)  # ties between gains
        h = rng.uniform(0.01, 0.25, size=n)
        for size in {1, n // 2 + 1, n}:
            idx = np.sort(rng.choice(n, size=size, replace=False)).astype(np.intp)
            gain, f, b = builder.best_split(B, g, h, idx)
            seed_gain, seed_f, seed_b = seed_ref.seed_gbdt_best_split(builder, B, g, h, idx)
            assert (f, b) == (seed_f, seed_b)
            assert np.float64(gain).tobytes() == np.float64(seed_gain).tobytes()


@st.composite
def lr_training_sets(draw, max_classes=10):
    """Small LR problems: k in 2..max_classes (eight or more classes sum
    each row pairwise), n up to 300 (so a pairwise column sum would cross
    NumPy's 8- and 128-term blocks), absent classes, large logits,
    duplicated rows and signed zeros."""
    n = draw(st.integers(min_value=1, max_value=300))
    d = draw(st.integers(min_value=1, max_value=5))
    n_classes = draw(st.integers(min_value=2, max_value=max_classes))
    present = draw(st.integers(min_value=1, max_value=n_classes))
    scale = draw(st.sampled_from([1.0, 30.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.normal(size=(n, d)) * scale
    if draw(st.booleans()):
        X = X[rng.integers(0, n, n)]  # duplicated rows
    if draw(st.booleans()):
        X[rng.random((n, d)) < 0.3] = rng.choice([-0.0, 0.0])
    classes = rng.choice(n_classes, size=present, replace=False)
    return X, classes[rng.integers(0, present, n)], n_classes


class TestLogisticObjectiveParity:
    """The class-major objective walks the seed objective's L-BFGS path: same
    coefficient bits, same iteration count, same probabilities."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=lr_training_sets(),
        C=st.sampled_from([0.01, 1.0, 100.0]),
        warm_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
    )
    def test_fit_bit_for_bit(self, data, C, warm_seed):
        X, y, n_classes = data
        fits = []
        for lr_cls in (LogisticRegression, seed_ref.SeedObjectiveLR):
            lr = lr_cls(C=C, max_iter=100)
            if warm_seed is not None:
                rng = np.random.default_rng(warm_seed)
                lr.warm_start_from(
                    rng.normal(size=(X.shape[1], n_classes)), rng.normal(size=n_classes)
                )
            fits.append(lr.fit(X, y, n_classes=n_classes))
        current, seed = fits
        assert current.coef_.tobytes() == seed.coef_.tobytes()
        assert current.intercept_.tobytes() == seed.intercept_.tobytes()
        assert current.n_iter_ == seed.n_iter_
        assert current.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        data=lr_training_sets(max_classes=12),
        C=st.sampled_from([0.01, 1.0, 100.0]),
        w_seed=st.integers(min_value=0, max_value=2**32 - 1),
        w_scale=st.sampled_from([0.1, 1.0, 30.0]),
    )
    def test_objective_bit_for_bit(self, data, C, w_seed, w_scale):
        """Loss and gradient bytes at random parameters; two evaluations
        per closure, so a buffer reused across evaluations is covered."""
        X, y, n_classes = data
        n, d = X.shape
        lam = 1.0 / (C * n)
        current = LogisticRegression._objective(X, y, n_classes, lam)
        seed = seed_ref.SeedObjectiveLR._objective(X, y, n_classes, lam)
        rng = np.random.default_rng(w_seed)
        for _ in range(2):
            w = rng.normal(size=(d + 1) * n_classes) * w_scale
            loss, grad = current(w)
            seed_loss, seed_grad = seed(w)
            assert np.float64(loss).tobytes() == np.float64(seed_loss).tobytes()
            assert grad.tobytes() == seed_grad.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_softmax_bit_for_bit(self, k, n, seed):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(n, k)) * rng.choice([1.0, 1e3], size=(n, 1))
        Z[rng.random((n, k)) < 0.2] = rng.choice([-0.0, 0.0])
        assert softmax(Z).tobytes() == seed_ref.seed_softmax(Z).tobytes()

    def test_multiclass_boosting_proba_matches_seed_softmax(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        y = np.digitize(X[:, 0] + 0.3 * X[:, 1], [-0.6, 0.0, 0.6]).astype(np.int64)
        gb = GradientBoostingClassifier(n_estimators=5).fit(X, y)
        P = seed_ref.seed_softmax(gb.decision_function(X))
        assert gb.predict_proba(X).tobytes() == P.tobytes()


@st.composite
def encoder_tables(draw, layout):
    """Tables of 0 to 200 rows with up to three numeric columns
    (``layout`` "numeric" or "mixed") and up to three categorical ones
    ("categorical" or "mixed"), with constant columns and signed zeros."""
    n = draw(st.integers(min_value=0, max_value=200))
    n_num = draw(st.integers(min_value=1, max_value=3)) if layout != "categorical" else 0
    cards = (
        draw(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=3))
        if layout != "numeric"
        else []
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    numeric = [f"x{j}" for j in range(n_num)]
    categorical = {f"c{j}": tuple(f"v{i}" for i in range(k)) for j, k in enumerate(cards)}
    columns = {}
    for name in numeric:
        col = rng.normal(size=n) * draw(st.sampled_from([1.0, 1e3]))
        if draw(st.booleans()):
            col[:] = col[:1].sum()  # constant
        col[rng.random(n) < 0.2] = rng.choice([-0.0, 0.0])
        columns[name] = col
    for name, cats in categorical.items():
        columns[name] = rng.integers(0, len(cats), n)
    return Table(make_schema(numeric=numeric, categorical=categorical), columns)


class TestEncoderParity:
    """The encoder's one preallocated matrix holds the bytes the seed's
    per-block ``np.hstack`` gave, dense or sharded."""

    @pytest.mark.parametrize("layout", ["mixed", "numeric", "categorical"])
    @pytest.mark.parametrize("standardize", [True, False])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), shard_rows=st.one_of(st.none(), st.integers(1, 64)))
    def test_transform_bit_for_bit(self, layout, standardize, data, shard_rows):
        table = data.draw(encoder_tables(layout))
        encoder = TabularEncoder(standardize=standardize).fit(table)
        expected = seed_ref.seed_encode(encoder, table)
        if shard_rows is not None:
            policy = SpillPolicy(1 << 30, shard_rows=shard_rows)
            table = TableBuilder.from_table(table, policy=policy).snapshot()
            assert table.shard_rows == shard_rows
        out = encoder.transform(table)
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
