"""Tests for the random forest."""

import sys
import threading

import numpy as np
import pytest
import seed_reference as seed_ref

from repro.models import RandomForestClassifier
from repro.models import forest as forest_module


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
