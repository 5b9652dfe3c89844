"""Tests for the random forest."""

import sys
import threading

import numpy as np
import pytest
import seed_reference as seed_ref
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import RandomForestClassifier
from repro.models import forest as forest_module
from repro.models import tree as tree_module


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(np.int64)
    return X, y


class TestRandomForest:
    def test_learns_signal(self):
        X, y = _data()
        m = RandomForestClassifier(n_estimators=20, max_depth=4, random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.85

    def test_proba_shape(self):
        X, y = _data()
        m = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        P = m.predict_proba(X)
        assert P.shape == (X.shape[0], 2)
        np.testing.assert_allclose(P.sum(axis=1), 1.0)

    def test_reproducible_with_seed(self):
        X, y = _data()
        a = RandomForestClassifier(n_estimators=8, random_state=42).fit(X, y).predict(X)
        b = RandomForestClassifier(n_estimators=8, random_state=42).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        X, y = _data()
        pa = RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y).predict_proba(X)
        pb = RandomForestClassifier(n_estimators=3, random_state=1).fit(X, y).predict_proba(X)
        assert not np.allclose(pa, pb)

    def test_n_estimators_trees_built(self):
        X, y = _data(100)
        m = RandomForestClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(m.trees_) == 7

    def test_no_bootstrap(self):
        X, y = _data(100)
        m = RandomForestClassifier(n_estimators=3, bootstrap=False, random_state=0).fit(X, y)
        assert (m.predict(X) == y).mean() > 0.8

    def test_multiclass(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 3))
        y = np.digitize(X[:, 0], [-0.6, 0.6]).astype(np.int64)
        m = RandomForestClassifier(n_estimators=25, max_depth=5, random_state=0)
        m.fit(X, y, n_classes=3)
        assert (m.predict(X) == y).mean() > 0.8

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError, match="n_estimators"):
            RandomForestClassifier(n_estimators=0)

    @pytest.mark.parametrize(
        "params", [{"max_depth": -1}, {"max_features": 0}, {"max_features": -2}]
    )
    def test_invalid_tree_params_raise_at_construction(self, params):
        with pytest.raises(ValueError, match=next(iter(params))):
            RandomForestClassifier(**params)

    @pytest.mark.parametrize("max_features", ["log2", "SQRT", 0.5, 1.5, True, False, [2]])
    def test_max_features_outside_none_sqrt_int_raises_at_construction(self, max_features):
        """Only None, "sqrt" or an int >= 1 name a feature count; a bool
        is an int to Python but not a count."""
        with pytest.raises(ValueError, match="max_features"):
            RandomForestClassifier(max_features=max_features)

    @pytest.mark.parametrize("bootstrap", [True, False])
    def test_no_columns_averages_the_class_distributions(self, bootstrap):
        """Every tree is one leaf holding its sample's class distribution."""
        X = np.zeros((9, 0))
        y = np.array([0, 1, 1, 2, 0, 1, 1, 2, 2])
        params = {"n_estimators": 5, "bootstrap": bootstrap, "random_state": 0}
        m = RandomForestClassifier(**params).fit(X, y)
        seed = seed_ref.SeedSplitForest(**params).fit(X, y)
        assert [t.n_nodes for t in m.trees_] == [1] * 5
        assert m.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    def test_label_outside_n_classes_raises(self):
        X, y = _data(20)
        with pytest.raises(ValueError, match="labels must lie in"):
            RandomForestClassifier(n_estimators=2).fit(X, y + 1, n_classes=2)

    def test_empty_data_raises(self):
        with pytest.raises(ValueError, match="cannot fit a tree on an empty dataset"):
            RandomForestClassifier().fit(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict(np.zeros((1, 2)))

    def test_paper_config_shallow_trees(self):
        X, y = _data()
        m = RandomForestClassifier(max_depth=3, random_state=0).fit(X, y)
        assert all(t.depth <= 3 for t in m.trees_)


def _fitted(forest: RandomForestClassifier) -> list[bytes]:
    """Every tree's node arrays as bytes."""
    return [
        a.tobytes()
        for t in forest.trees_
        for a in (t.feature_, t.threshold_, t.children_, t.value_)
    ]


def _wide(n: int, seed: int) -> np.ndarray:
    """Seven columns: four normal, two copies scaled by 2, one rounded."""
    X, _ = _data(n, seed=seed)
    return np.column_stack([X, X[:, :2] * 2.0, np.round(X[:, 3])])


def _labels(X: np.ndarray, rich: bool) -> np.ndarray:
    """Labels that split on many features (``rich``) or on one."""
    if rich:
        return (np.digitize(X[:, 0] + X[:, 2] * X[:, 5], [-0.7, 0.0, 0.7])).astype(np.int64)
    return (X[:, 0] > 1.5).astype(np.int64)


@pytest.fixture
def empty_memo():
    forest_module._memo.clear()
    yield
    forest_module._memo.clear()


@pytest.mark.usefixtures("empty_memo")
class TestDrawMemo:
    """Same-shape refits with an integer seed read the draws of an earlier
    fit instead of drawing again, and grow the trees a drawing fit grows."""

    params = {"n_estimators": 12, "max_depth": 4, "random_state": 7}

    def _cold(self, X, y, **params):
        """A fit that draws everything itself."""
        forest_module._memo.clear()
        return RandomForestClassifier(**{**self.params, **params}).fit(X, y, n_classes=4)

    @pytest.mark.parametrize("first_rich", [False, True])
    def test_memo_hit_equals_cold_fit_and_seed(self, first_rich):
        """The second fit reads the first fit's tape and, with more nodes
        than the first fit searched, extends it (or, with fewer, reads a
        prefix of it)."""
        X = _wide(200, seed=3)
        y1, y2 = _labels(X, first_rich), _labels(X, not first_rich)
        RandomForestClassifier(**self.params).fit(X, y1, n_classes=4)
        assert len(forest_module._memo) == 1
        hit = RandomForestClassifier(**self.params).fit(X, y2, n_classes=4)
        assert len(forest_module._memo) == 1
        cold = self._cold(X, y2)
        assert _fitted(hit) == _fitted(cold)
        assert hit.predict_proba(X).tobytes() == cold.predict_proba(X).tobytes()
        seed = seed_ref.SeedSplitForest(**self.params).fit(X, y2, n_classes=4)
        assert [t.n_nodes for t in hit.trees_] == [len(t.nodes_) for t in seed.trees_]
        assert hit.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    @pytest.mark.parametrize(
        "change",
        [{"max_features": 1}, {"max_features": None}, {"bootstrap": False}, "columns"],
    )
    def test_shape_changes_never_share_draws(self, change):
        """Same seed and rows, another draw width, feature count or
        sampling: another memo entry, and each fit matches its cold fit."""
        X, y = _wide(150, seed=4), _data(150, seed=4)[1]
        RandomForestClassifier(**self.params).fit(X, y, n_classes=4)
        first = next(iter(forest_module._memo.values()))
        if change == "columns":
            X2, params = X[:, :-1], {}
        else:
            X2, params = X, change
        other = RandomForestClassifier(**{**self.params, **params}).fit(X2, y, n_classes=4)
        entries = list(forest_module._memo.values())
        assert len(entries) == 2
        assert entries[1].tape is not first.tape
        assert entries[1].samples is not first.samples
        assert _fitted(other) == _fitted(self._cold(X2, y, **params))

    @pytest.mark.parametrize("random_state", [None, "generator"])
    def test_generator_and_none_seeds_are_never_kept(self, random_state):
        X, y = _data(80)
        if random_state == "generator":
            random_state = np.random.default_rng(1)
        RandomForestClassifier(n_estimators=3, random_state=random_state).fit(X, y)
        assert not forest_module._memo

    def test_generator_seed_draws_afresh(self):
        """A ``Generator`` seed advances: two fits off one generator
        draw two different forests, as before the memo."""
        X, y = _data(80)
        rng = np.random.default_rng(1)
        a = RandomForestClassifier(n_estimators=3, random_state=rng).fit(X, y)
        b = RandomForestClassifier(n_estimators=3, random_state=rng).fit(X, y)
        assert _fitted(a) != _fitted(b)

    def test_memo_keeps_the_most_recent_keys(self):
        X, y = _data(60)
        for n in (40, 50, 60):
            RandomForestClassifier(n_estimators=2, random_state=0).fit(X[:n], y[:n])
        RandomForestClassifier(n_estimators=2, random_state=0).fit(X[:50], y[:50])
        assert [key[2] for key in forest_module._memo] == [60, 50]
        assert len(forest_module._memo) == forest_module._MEMO_KEYS

    def test_samples_are_read_only(self):
        X, y = _data(60)
        RandomForestClassifier(n_estimators=3, random_state=0).fit(X, y)
        (draws,) = forest_module._memo.values()
        assert not any(rows.flags.writeable for rows in draws.samples)

    def test_new_shape_reuses_the_seeds_streams(self):
        """Another row count of one seed and tree count spawns no streams
        of its own: it takes those of the entry that has them, and grows
        its cold fit's forest."""
        X, y = _wide(150, seed=4), _data(150, seed=4)[1]
        RandomForestClassifier(**self.params).fit(X[:120], y[:120], n_classes=4)
        grown = RandomForestClassifier(**self.params).fit(X, y, n_classes=4)
        first, second = forest_module._memo.values()
        assert second.seeds is first.seeds
        _assert_same_forest(grown, _cold(self.params, X, y, 4), X)
        other = {**self.params, "random_state": 8}
        RandomForestClassifier(**other).fit(X[:120], y[:120], n_classes=4)
        assert list(forest_module._memo.values())[-1].seeds is not first.seeds

    @pytest.mark.parametrize("random_state", [7, 8])
    @pytest.mark.parametrize("batch", ["known values", "new value", "value gone"])
    def test_new_shape_starts_from_the_recent_binning(self, batch, random_state, monkeypatch):
        """A fit that misses the memo codes afresh only where the rows it
        adds to the most recent fit's (of any seed) bring a new value, or
        its rows drop one; either way it grows its cold fit's forest."""
        X = _wide(120, seed=8)
        y = _labels(X, rich=True)
        X2, y2 = np.vstack([X, X[:10]]), np.concatenate([y, y[:10]])
        if batch == "new value":
            X2[-1, 0] = 9.5  # no row holds 9.5
        elif batch == "value gone":  # the last rows' normal values
            X2, y2 = X[:110], y[:110]
        coded = []
        from_array = tree_module._BinnedX.from_array.__func__

        def counted(cls, X):
            coded.append(X.shape[0])
            return from_array(cls, X)

        monkeypatch.setattr(tree_module._BinnedX, "from_array", classmethod(counted))
        RandomForestClassifier(**self.params).fit(X, y, n_classes=4)
        params = {**self.params, "random_state": random_state}
        got = RandomForestClassifier(**params).fit(X2, y2, n_classes=4)
        assert coded == ([120] if batch == "known values" else [120, X2.shape[0]])
        _assert_same_forest(got, _cold(params, X2, y2, 4), X2)

    def test_concurrent_fits_equal_serial_fits(self):
        """Eight threads share one memo entry and extend its tape in turn,
        switching every microsecond, and grow what serial cold fits grow."""
        X = _wide(200, seed=5)
        labels = [_labels(X, rich) for rich in (True, False, True, False)]
        labels += [np.roll(y, k) for k, y in enumerate(labels, start=1)]
        serial = [_fitted(self._cold(X, y)) for y in labels]
        forest_module._memo.clear()
        got: dict[int, list[bytes]] = {}
        start = threading.Barrier(len(labels), timeout=30)

        def fit(i: int) -> None:
            start.wait()
            got[i] = _fitted(RandomForestClassifier(**self.params).fit(X, labels[i], n_classes=4))

        threads = [threading.Thread(target=fit, args=(i,)) for i in range(len(labels))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [got.get(i) for i in range(len(labels))] == serial
        assert len(forest_module._memo) == 1


def _cold(params: dict, X: np.ndarray, y: np.ndarray, n_classes: int) -> RandomForestClassifier:
    """The forest a fit that keeps nothing grows: a ``Generator`` seeded
    like the integer seed draws the same samples and features, and the
    memo never keeps it."""
    seeded = {**params, "random_state": np.random.default_rng(params["random_state"])}
    return RandomForestClassifier(**seeded).fit(X, y, n_classes=n_classes)


def _assert_same_forest(got, cold, X: np.ndarray) -> None:
    assert _fitted(got) == _fitted(cold)
    assert got.predict_proba(X).tobytes() == cold.predict_proba(X).tobytes()


class _ReplayLog:
    """Every replay's first shared row ``p`` and the trees it grew again."""

    def __init__(self, monkeypatch):
        self.starts: list[int] = []
        self.regrown: list[list[int]] = []
        replay, grow = tree_module._replay, tree_module._grow

        def logged_replay(*args):
            self.starts.append(args[-1])
            self.regrown.append([])
            return replay(*args)

        def logged_grow(trees, *args, tree_ids=None, **kwargs):
            if tree_ids is not None:
                self.regrown[-1] = tree_ids.tolist()
            return grow(trees, *args, tree_ids=tree_ids, **kwargs)

        monkeypatch.setattr(forest_module, "_replay", logged_replay)
        monkeypatch.setattr(tree_module, "_grow", logged_grow)


def _mixed_rows(rng: np.random.Generator, k: int, n_onehot: int, n_continuous: int) -> np.ndarray:
    """``k`` rows of ``n_onehot`` one-hot groups of three columns and
    ``n_continuous`` columns of one-decimal normals."""
    parts = [np.eye(3)[rng.integers(0, 3, k)] for _ in range(n_onehot)]
    parts += [np.round(rng.normal(size=(k, 1)), 1) for _ in range(n_continuous)]
    return np.hstack(parts)


@st.composite
def refit_sequences(draw):
    """A forest's parameters and a sequence of same-shape training sets,
    each made from the one before by one of the edits a FROTE loop or a
    caller makes: a new batch of known values in the last rows, a batch
    with new values, a label changed inside the shared rows, every row
    changed, or no change at all."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(8, 60))
    n_onehot = draw(st.integers(0, 2))
    n_continuous = draw(st.integers(0 if n_onehot else 1, 3))
    n_classes = draw(st.integers(2, 3))
    params = {
        "n_estimators": draw(st.integers(1, 6)),
        "max_depth": draw(st.sampled_from([1, 2, 3, None])),
        "criterion": draw(st.sampled_from(["gini", "entropy"])),
        "min_samples_split": draw(st.integers(2, 4)),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "bootstrap": draw(st.booleans()),
        "max_features": draw(st.sampled_from([None, "sqrt"])),
        "random_state": seed,
    }
    X = _mixed_rows(rng, n, n_onehot, n_continuous)
    y = rng.integers(0, n_classes, n)
    fits = [(X, y)]
    for edit in draw(
        st.lists(st.sampled_from(["batch", "new", "label", "all", "same"]), min_size=1, max_size=4)
    ):
        X, y = X.copy(), y.copy()
        k = int(rng.integers(1, max(2, n // 3)))
        if edit == "batch":  # values the rows before the batch hold
            for f in range(X.shape[1]):
                X[n - k :, f] = rng.choice(X[: n - k, f], k)
            y[n - k :] = rng.integers(0, n_classes, k)
        elif edit == "new":
            X[n - k :] = _mixed_rows(rng, k, n_onehot, n_continuous)
            y[n - k :] = rng.integers(0, n_classes, k)
        elif edit == "label":
            i = int(rng.integers(n))
            y[i] = (y[i] + 1) % n_classes
        elif edit == "all":
            order = rng.permutation(n)
            X, y = X[order], y[order]
        fits.append((X, y))
    return params, n_classes, fits


@st.composite
def paired_refit_sequences(draw):
    """:func:`refit_sequences` for two forests of one seed, tree count,
    ``max_features`` and ``bootstrap`` whose other tree parameters differ,
    so that they share memo keys; before some fits a batch of rows is also
    appended for good (an accepted batch), of known values or with a new
    one, so those fits miss the memo."""
    params, n_classes, fits = draw(refit_sequences())
    other = {
        **params,
        "max_depth": draw(st.sampled_from([1, 2, 3, None])),
        "criterion": "entropy" if params["criterion"] == "gini" else "gini",
        "min_samples_split": draw(st.integers(2, 4)),
        "min_samples_leaf": draw(st.integers(1, 3)),
    }
    rng = np.random.default_rng(params["random_state"] + 1)
    X_added, y_added = fits[0][0][:0], fits[0][1][:0]
    grown = []
    for X, y in fits:
        if grown and draw(st.booleans()):
            k = int(rng.integers(1, 6))
            rows = X[rng.integers(0, X.shape[0], k)]
            if draw(st.booleans()):
                rows[-1, -1] += 0.05  # a value no row holds
            X_added = np.vstack([X_added, rows])
            y_added = np.concatenate([y_added, rng.integers(0, n_classes, k)])
        grown.append((np.vstack([X, X_added]), np.concatenate([y, y_added])))
    return params, other, n_classes, grown


@pytest.mark.usefixtures("empty_memo")
class TestReplay:
    """A same-shape refit with an integer seed starts from the last fit's
    record, grows again only the trees whose splits change, and grows the
    forest that a fit keeping nothing grows, node for node and bit for
    bit."""

    params = {"n_estimators": 10, "max_depth": 4, "random_state": 3}

    @settings(max_examples=60, deadline=None)
    @given(case=refit_sequences())
    def test_replayed_fits_equal_cold_fits_and_seed(self, case):
        params, n_classes, fits = case
        forest_module._memo.clear()
        for X, y in fits:
            got = RandomForestClassifier(**params).fit(X, y, n_classes=n_classes)
            _assert_same_forest(got, _cold(params, X, y, n_classes), X)
            seed = seed_ref.SeedSplitForest(**params).fit(X, y, n_classes=n_classes)
            assert [t.n_nodes for t in got.trees_] == [len(t.nodes_) for t in seed.trees_]
            assert got.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(case=paired_refit_sequences())
    def test_forests_sharing_memo_keys_equal_cold_fits_and_seed(self, case):
        """The memo key leaves out ``max_depth``, ``criterion`` and the
        sample-size limits, so two such forests replay each other's
        records, and a fit that misses the memo takes the other's
        binning and streams: every fit still grows its cold fit's
        forest and the seed forest."""
        params, other, n_classes, fits = case
        forest_module._memo.clear()
        for i, (X, y) in enumerate(fits):
            for p in (params, other) if i % 2 else (other, params):
                got = RandomForestClassifier(**p).fit(X, y, n_classes=n_classes)
                _assert_same_forest(got, _cold(p, X, y, n_classes), X)
                seed = seed_ref.SeedSplitForest(**p).fit(X, y, n_classes=n_classes)
                assert got.predict_proba(X).tobytes() == seed.predict_proba(X).tobytes()

    def _sequence(self, monkeypatch, fits, n_classes=4, **params):
        """Fit ``fits`` in turn, check each against its cold fit; the log
        of the replays."""
        params = {**self.params, **params}
        log = _ReplayLog(monkeypatch)
        for X, y in fits:
            got = RandomForestClassifier(**params).fit(X, y, n_classes=n_classes)
            _assert_same_forest(got, _cold(params, X, y, n_classes), X)
        return log

    def test_batch_with_a_new_value_fits_afresh(self, monkeypatch):
        """A batch that brings a value no row had changes the binning: that
        fit grows every tree, and the next batch of known values replays it."""
        # Every row twice, so a batch takes no value out of the columns.
        X, y = np.tile(_wide(60, seed=8), (2, 1)), np.tile(_data(60, seed=8)[1], 2)
        X2 = X.copy()
        X2[-1, 0] = 9.5  # no row holds 9.5
        X3 = X2.copy()
        X3[-20:-1] = X2[:19]
        log = self._sequence(monkeypatch, [(X, y), (X2, y), (X3, y)])
        assert log.starts == [100]

    def test_label_changed_inside_the_shared_rows(self, monkeypatch):
        X, y = _wide(150, seed=2), _labels(_wide(150, seed=2), rich=True)
        y2 = y.copy()
        y2[37] = (y2[37] + 1) % 4
        log = self._sequence(monkeypatch, [(X, y), (X, y2)])
        assert log.starts == [37]

    def test_every_row_changed(self, monkeypatch):
        """p = 0: every row is taken out of the record and counted again."""
        X, y = _wide(150, seed=6), _labels(_wide(150, seed=6), rich=True)
        order = np.random.default_rng(0).permutation(150)
        log = self._sequence(monkeypatch, [(X, y), (X[order], y[order]), (X, y)])
        assert log.starts == [0, 0]

    def test_more_classes_fits_afresh(self, monkeypatch):
        """The same rows with another ``n_classes`` count other cells: no
        replay, and the next refit with that many classes replays it."""
        X, y = _wide(150, seed=6), _labels(_wide(150, seed=6), rich=True)
        params = {**self.params}
        log = _ReplayLog(monkeypatch)
        for n_classes in (4, 5, 5):
            got = RandomForestClassifier(**params).fit(X, y, n_classes=n_classes)
            _assert_same_forest(got, _cold(params, X, y, n_classes), X)
        assert log.starts == [150]

    def test_identical_refit_grows_nothing(self, monkeypatch):
        X, y = _wide(150, seed=6), _labels(_wide(150, seed=6), rich=True)
        log = self._sequence(monkeypatch, [(X, y), (X, y)])
        assert log.starts == [150] and log.regrown == [[]]

    def test_trees_diverging_at_the_root_and_at_depth_two_grow_again(self, monkeypatch):
        """The batch moves some trees' root split and, in others, only a
        split two levels down that has searched children: both grow
        again, and the trees whose splits hold are kept."""
        rng = np.random.default_rng(3)
        # Every row twice, so that the batch takes no value out of the columns.
        X = np.tile(_wide(80, seed=3), (2, 1))
        y = _labels(X, rich=True)
        X2, y2 = X.copy(), y.copy()
        X2[-4:] = X[rng.integers(0, 80, 4)]
        y2[-4:] = rng.integers(0, 4, 4)
        params = {**self.params, "n_estimators": 24}
        first = RandomForestClassifier(**params).fit(X, y, n_classes=4)
        log = _ReplayLog(monkeypatch)
        second = RandomForestClassifier(**params).fit(X2, y2, n_classes=4)
        _assert_same_forest(second, _cold(params, X2, y2, 4), X2)
        (regrown,) = log.regrown
        depths = [_first_difference(first.trees_[t], second.trees_[t]) for t in regrown]
        assert 0 in depths and 2 in depths
        assert 0 < len(regrown) < params["n_estimators"]

    def test_concurrent_refits_equal_cold_fits(self):
        """Eight threads refit one memo key, each on its own batches,
        switching every microsecond: every fit reads one whole record and
        grows its cold fit's forest."""
        X = _wide(200, seed=5)
        y = _labels(X, rich=True)
        rng = np.random.default_rng(1)
        runs = []
        for _ in range(8):
            fits = []
            for _ in range(3):
                Xb, yb = X.copy(), y.copy()
                Xb[-20:] = X[rng.integers(0, 180, 20)]
                yb[-20:] = rng.integers(0, 4, 20)
                fits.append((Xb, yb))
            runs.append(fits)
        cold = [[_fitted(_cold(self.params, Xb, yb, 4)) for Xb, yb in fits] for fits in runs]
        forest_module._memo.clear()
        got: dict[int, list[list[bytes]]] = {}
        start = threading.Barrier(len(runs), timeout=30)

        def refit(i: int) -> None:
            start.wait()
            got[i] = [
                _fitted(RandomForestClassifier(**self.params).fit(Xb, yb, n_classes=4))
                for Xb, yb in runs[i]
            ]

        threads = [threading.Thread(target=refit, args=(i,)) for i in range(len(runs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [got.get(i) for i in range(len(runs))] == cold
        assert len(forest_module._memo) == 1


def _first_difference(a, b, i: int = 0, j: int = 0, depth: int = 0) -> float:
    """The depth of the shallowest node, by path from the root, where two
    trees split on another feature or one splits and the other does not;
    inf if they never do."""
    a_leaf = a.children_[2 * i] == i
    b_leaf = b.children_[2 * j] == j
    if a_leaf or b_leaf:
        return np.inf if a_leaf == b_leaf else depth
    if a.feature_[i] != b.feature_[j]:
        return depth
    return min(
        _first_difference(a, b, a.children_[2 * i + side], b.children_[2 * j + side], depth + 1)
        for side in (0, 1)
    )


class TestForestWalk:
    """``predict_proba`` walks all trees at once and adds their leaf rows
    in tree order, as a sum tree by tree does."""

    @pytest.mark.parametrize("n_rows", [0, 1, 7, 333])
    def test_blocks_match_tree_by_tree_sum(self, n_rows, monkeypatch):
        X, y = _data(300, seed=6)
        m = RandomForestClassifier(n_estimators=9, max_depth=4, random_state=2).fit(X, y)
        Q = np.random.default_rng(0).normal(size=(n_rows, 4))
        expected = np.zeros((n_rows, 2))
        for tree in m.trees_:
            expected += tree.predict_proba(Q)
        expected /= len(m.trees_)
        # Blocks of one row, a few rows, and every row at once.
        for cells in (1, 40, 1 << 20):
            monkeypatch.setattr(forest_module, "_WALK_CELLS", cells)
            assert m.predict_proba(Q).tobytes() == expected.tobytes()
