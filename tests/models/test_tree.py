"""Tests for the CART decision tree."""

import numpy as np
import pytest
import seed_reference as seed_ref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.models import DecisionTreeClassifier
from repro.models.tree import _dense_counts, _FeatureTape, _sorted_counts, _tail_shuffle


def _xor(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


class TestFit:
    def test_fits_axis_aligned_split(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (100, 2))
        y = (X[:, 0] > 0.5).astype(np.int64)
        m = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert (m.predict(X) == y).all()

    def test_fits_xor_with_depth_3(self):
        # Greedy CART's first XOR split is noise-driven, so depth 2 is not
        # guaranteed to carve the quadrants exactly; depth 3 is.
        X, y = _xor()
        m = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_max_depth_respected(self):
        X, y = _xor(400)
        m = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert m.depth <= 3

    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 0])
        m = DecisionTreeClassifier().fit(X, y, n_classes=2)
        assert m.n_nodes == 1

    def test_min_samples_leaf(self):
        X, y = _xor(100)
        m = DecisionTreeClassifier(min_samples_leaf=30).fit(X, y)
        # Every leaf must hold >= 30 samples, so depth is very limited.
        assert m.n_nodes <= 7

    def test_min_samples_split(self):
        X, y = _xor(100)
        m = DecisionTreeClassifier(min_samples_split=200).fit(X, y)
        assert m.n_nodes == 1

    def test_entropy_criterion(self):
        X, y = _xor()
        m = DecisionTreeClassifier(max_depth=3, criterion="entropy").fit(X, y)
        assert (m.predict(X) == y).mean() > 0.95

    def test_invalid_criterion_raises(self):
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="mse")

    @pytest.mark.parametrize(
        "params", [{"max_depth": -1}, {"max_features": 0}, {"max_features": -2}]
    )
    def test_invalid_params_raise_at_construction(self, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            DecisionTreeClassifier(**params)

    @pytest.mark.parametrize("max_features", ["log2", "SQRT", 0.5, 1.5, True, False, [2]])
    def test_max_features_outside_none_sqrt_int_raises_at_construction(self, max_features):
        """Only None, "sqrt" or an int >= 1 name a feature count; a bool
        is an int to Python but not a count."""
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeClassifier(max_features=max_features)

    @pytest.mark.parametrize("max_features", [None, "sqrt", 2])
    def test_no_columns_is_one_leaf(self, max_features):
        X = np.zeros((7, 0))
        y = np.array([0, 1, 1, 2, 0, 1, 1])
        m = DecisionTreeClassifier(max_features=max_features, random_state=0).fit(X, y)
        seed = seed_ref.SeedSplitTree(max_features=max_features, random_state=0).fit(X, y)
        assert m.n_nodes == 1
        assert m.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    def test_empty_data_raises(self):
        with pytest.raises(ValueError, match="empty"):
            DecisionTreeClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    @pytest.mark.parametrize("labels,n_classes", [([0, 2], 2), ([-1, 0], None)])
    def test_label_outside_n_classes_raises(self, labels, n_classes):
        with pytest.raises(ValueError, match="labels must lie in"):
            DecisionTreeClassifier().fit(np.zeros((2, 1)), labels, n_classes=n_classes)

    def test_max_features_sqrt(self):
        X, y = _xor()
        m = DecisionTreeClassifier(max_depth=3, max_features="sqrt", random_state=0)
        m.fit(X, y)
        assert (m.predict(X) == y).mean() > 0.5

    def test_invalid_max_features_raises(self):
        X, y = _xor(50)
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeClassifier(max_features=1.5).fit(X, y)

    def test_constant_features_single_leaf(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        m = DecisionTreeClassifier().fit(X, y)
        assert m.n_nodes == 1

    def test_deep_tree(self):
        # Every split peels one row off: a recursive builder overflowed the
        # interpreter's stack here.
        X = np.arange(3000.0)[:, None]
        y = np.arange(3000) % 2
        m = DecisionTreeClassifier().fit(X, y)
        assert m.depth > 1000
        np.testing.assert_array_equal(m.predict(X), y)

    def test_midpoint_of_adjacent_floats(self):
        # (lo + hi) / 2 rounds onto hi: a threshold there would send every
        # row left, forever.  The lower value splits the same rows.
        lo, hi = 1 + 2.0**-52, 1 + 2.0**-51
        assert (lo + hi) / 2 == hi
        X = np.array([[lo], [hi], [2.0]])
        y = np.array([0, 1, 1])
        m = DecisionTreeClassifier().fit(X, y)
        assert m.threshold_[0] == lo
        np.testing.assert_array_equal(m.predict(X), y)


class TestPredict:
    def test_proba_rows_sum_to_one(self):
        X, y = _xor()
        m = DecisionTreeClassifier(max_depth=4).fit(X, y)
        P = m.predict_proba(X)
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict(np.zeros((1, 2)))

    def test_n_classes_padding(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        m = DecisionTreeClassifier().fit(X, y, n_classes=5)
        assert m.predict_proba(X).shape == (2, 5)

    def test_deterministic_given_seed(self):
        X, y = _xor(300, seed=3)
        p1 = DecisionTreeClassifier(max_depth=4, max_features="sqrt", random_state=9).fit(X, y).predict(X)
        p2 = DecisionTreeClassifier(max_depth=4, max_features="sqrt", random_state=9).fit(X, y).predict(X)
        np.testing.assert_array_equal(p1, p2)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=120),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_training_accuracy_beats_majority_property(n, seed):
    """An unrestricted tree must fit training data at least as well as the
    majority-class baseline."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, n)
    m = DecisionTreeClassifier().fit(X, y, n_classes=2)
    acc = (m.predict(X) == y).mean()
    majority = max(y.mean(), 1 - y.mean())
    assert acc >= majority - 1e-12


@st.composite
def round_keys(draw):
    """One round's histogram keys ``bin * c + label``, in row order: each
    slot's rows take a random subset of its bins (so bins go missing and a
    slot may hold one value), some draws are single-class, and c runs up
    to 12."""
    c = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n_bins = rng.integers(1, 6, size=draw(st.integers(min_value=1, max_value=6)))
    single_class = draw(st.booleans())
    keys = []
    for start, size in zip(np.cumsum(n_bins) - n_bins, n_bins):
        present = start + rng.choice(size, size=rng.integers(1, size + 1), replace=False)
        n_rows = int(rng.integers(1, 40))
        labels = np.full(n_rows, rng.integers(c)) if single_class else rng.integers(0, c, n_rows)
        keys.append(rng.choice(present, n_rows) * c + labels)
    return rng.permutation(np.concatenate(keys)).astype(np.intp), int(n_bins.sum()) * c, c


@settings(max_examples=100, deadline=None)
@given(case=round_keys())
@example(case=(np.array([1, 9, 8, 1], dtype=np.intp), 12, 4))  # bin 1 absent
@example(case=(np.array([5, 5, 2, 2, 5], dtype=np.intp), 9, 3))  # one class at the node
@example(case=(np.array([3, 12, 17, 30], dtype=np.intp), 32, 8))  # c = 8, one key per bin
def test_dense_and_sorted_counts_agree(case):
    """Both ways of counting a round's histogram give the same present
    bins, class counts and rows through each bin, bit for bit."""
    keys, n_cells, c = case
    dense = _dense_counts(keys.copy(), n_cells, c)
    by_sort = _sorted_counts(keys.copy(), c)
    for a, b in zip(dense, by_sort):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    bins, hist, through = dense
    np.testing.assert_array_equal(bins, np.unique(keys // c))
    assert hist.sum() == through[-1] == keys.size


@st.composite
def tape_reads(draw):
    """A feature tape over ``n_trees`` seeded generators, each of which
    first draws ``integers(size=pre)`` (a forest's bootstrap sample), and
    the rounds of a fit reading it: in each round some trees read their
    next row.  ``d`` falls on both sides of ``choice``'s tail-shuffle
    branch (``d > 10000`` and ``m > d // 50``), and ``m`` reaches past
    100 for Floyd's sample."""
    if draw(st.booleans()):
        d = draw(st.integers(10000, 10300))
        m = draw(st.integers(1, 2 * (d // 50)))
    else:
        d = draw(st.integers(2, 150))
        m = draw(st.integers(1, d - 1))
    n_trees = draw(st.integers(1, 4))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=n_trees, max_size=n_trees))
    pre = draw(st.integers(0, 40))
    rounds = draw(
        st.lists(st.lists(st.booleans(), min_size=n_trees, max_size=n_trees), max_size=20)
    )
    return d, m, seeds, pre, rounds, draw(st.booleans())


class TestFeatureTape:
    """A tape's rows, and its generators' states after them, are those of
    one ``choice(d, m, replace=False)`` call per row drawn."""

    @settings(max_examples=150, deadline=None)
    @given(case=tape_reads())
    @example(case=(21, 4, [42, 7], 1140, [[True, True]] * 9 + [[False, True]], True))
    @example(case=(10001, 201, [3], 5, [[True]] * 3, False))  # tail shuffle
    @example(case=(10001, 200, [3], 5, [[True]] * 3, True))  # Floyd, just below it
    @example(case=(10000, 300, [3], 0, [[True]] * 2, False))  # Floyd, d not above 10000
    def test_rows_and_state_match_choice(self, case):
        d, m, seeds, pre, rounds, owned = case
        rngs = [np.random.default_rng(seed) for seed in seeds]
        refs = [np.random.default_rng(seed) for seed in seeds]
        for rng in rngs + refs:
            rng.integers(0, max(pre, 1), size=pre)
        tape = _FeatureTape(rngs, d, m, owned=owned)
        n_read = np.zeros(len(seeds), dtype=np.intp)
        read: list[list[np.ndarray]] = [[] for _ in seeds]
        for reading in rounds:
            trees = np.flatnonzero(reading)
            if trees.size:
                for t, row in zip(trees.tolist(), tape.take(trees, n_read[trees])):
                    read[t].append(row)
                n_read[trees] += 1
        drawn = tape._state[1]
        for t, ref in enumerate(refs):
            if not owned:  # a caller's generator draws only the rows read
                assert drawn[t] == n_read[t]
            rows = [ref.choice(d, m, replace=False) for _ in range(drawn[t])]
            assert len(read[t]) == n_read[t] <= len(rows)
            assert all(np.array_equal(a, b) for a, b in zip(read[t], rows))
            assert rngs[t].bit_generator.state == ref.bit_generator.state
        # A second fit reads every drawn row back unchanged.
        if n_read.any():
            again = tape.take(np.arange(len(seeds)), np.maximum(n_read - 1, 0))
            for t in np.flatnonzero(n_read).tolist():
                assert np.array_equal(again[t], read[t][-1])

    def test_examples_reach_both_branches(self):
        assert _tail_shuffle(10001, 201) and not _tail_shuffle(10001, 200)
        assert not _tail_shuffle(10000, 300)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 80),
        d=st.integers(2, 8),
        max_features=st.sampled_from(["sqrt", 1, 2, 3]),
        max_depth=st.sampled_from([1, 3, None]),
    )
    def test_callers_generator_draws_once_per_search(self, seed, n, d, max_features, max_depth):
        """A tree given a caller's ``Generator`` leaves it where the seed
        tree's one ``choice`` call per searched node leaves it."""
        data = np.random.default_rng(seed)
        X = np.round(data.normal(size=(n, d)), 1)
        y = data.integers(0, 3, n)
        params = {"max_depth": max_depth, "max_features": max_features}
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        tree = DecisionTreeClassifier(random_state=rng, **params).fit(X, y, n_classes=3)
        seed_tree = seed_ref.SeedSplitTree(random_state=ref, **params).fit(X, y, n_classes=3)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert tree.n_nodes == len(seed_tree.nodes_)
        assert tree.predict_proba(X).tobytes() == seed_tree.predict_proba(X).tobytes()
