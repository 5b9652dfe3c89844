"""Tests for the brute-force KNN index, checked against a per-query reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neighbors import BruteKNN, MixedMetric

from tests.conftest import heom_dists_to


def _data(n=100, d=3, seed=0, n_cat=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, d + n_cat))
    for j in range(d, d + n_cat):
        X[:, j] = rng.integers(0, 3, n)
    mask = np.zeros(d + n_cat, dtype=bool)
    mask[d:] = True
    return X, MixedMetric(mask)


class TestBruteKNN:
    def test_nearest_is_self_without_exclude(self):
        X, _ = _data()
        knn = BruteKNN().fit(X)
        d, i = knn.kneighbors(X[:5], 1)
        np.testing.assert_array_equal(i[:, 0], np.arange(5))
        np.testing.assert_allclose(d[:, 0], 0, atol=1e-6)

    def test_exclude_self_drops_query(self):
        X, _ = _data()
        knn = BruteKNN().fit(X)
        _, i = knn.kneighbors(X[:5], 3, exclude_self=True)
        for q in range(5):
            assert q not in i[q]

    def test_distances_sorted(self):
        X, _ = _data()
        d, _ = BruteKNN().fit(X).kneighbors(X[:10], 5)
        assert np.all(np.diff(d, axis=1) >= -1e-12)

    def test_k_larger_than_n(self):
        X, _ = _data(n=4)
        d, i = BruteKNN().fit(X).kneighbors(X[:2], 10)
        assert i.shape == (2, 4)
        # An empty fitted base answers every query with no neighbours.
        for exclude_self in (False, True):
            d, i = BruteKNN().fit(X[:0]).kneighbors(X[:2], 3, exclude_self=exclude_self)
            assert d.shape == i.shape == (2, 0)

    def test_k_larger_than_n_exclude_self(self):
        X, _ = _data(n=4)
        d, i = BruteKNN().fit(X).kneighbors(X[:2], 10, exclude_self=True)
        assert i.shape == (2, 3)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            BruteKNN().kneighbors(np.zeros((1, 2)), 1)

    def test_invalid_k_raises(self):
        X, _ = _data()
        with pytest.raises(ValueError, match="k must be positive"):
            BruteKNN().fit(X).kneighbors(X[:1], 0)

    def test_mixed_metric(self):
        # Mixed and categorical-only: each reported distance carries the
        # bits of the metric's pairwise entry for the reported row.
        for d_num, n_cat in ((3, 2), (0, 3)):
            X, m = _data(n=50, d=d_num, n_cat=n_cat)
            d, i = BruteKNN(m).fit(X).kneighbors(X[:5], 3, exclude_self=True)
            assert d.shape == (5, 3)
            D = m.pairwise(X[:5], X)
            np.testing.assert_array_equal(np.take_along_axis(D, i, axis=1), d)

    def test_fit_width_must_match_metric(self):
        X, m = _data(n=20, d=1, n_cat=2)
        with pytest.raises(ValueError, match="X has 6 features, but the metric covers 3"):
            BruteKNN(m).fit(np.hstack([X, X]))

    def test_query_width_must_match_fit(self):
        X, m = _data(n=20, d=1, n_cat=2)
        for metric in ("euclidean", m):
            knn = BruteKNN(metric).fit(X)
            with pytest.raises(ValueError, match="Q has 5 features, but the index was fitted on 3"):
                knn.kneighbors(np.zeros((2, 5)), 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    k=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=10**6),
    mixed=st.booleans(),
    exclude_self=st.booleans(),
)
def test_brute_matches_per_query_reference_property(n, k, seed, mixed, exclude_self):
    """BruteKNN's sorted top-k distances equal an independent per-query
    scan: direct differences (:func:`heom_dists_to`) plus a sort,
    dropping one zero-distance self match under ``exclude_self``."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 3))
    X[:, 2] = rng.integers(0, 3, n)
    # Fitted rows (self matches for exclude_self) plus fresh queries.
    fresh = rng.uniform(0, 1, (3, 3))
    fresh[:, 2] = rng.integers(0, 3, 3)
    Q = np.vstack([X[:4], fresh])
    cat_mask = np.array([False, False, mixed])
    metric = MixedMetric(cat_mask) if mixed else "euclidean"
    d, i = BruteKNN(metric).fit(X).kneighbors(Q, k, exclude_self=exclude_self)
    out_k = min(k, n - 1 if exclude_self else n)
    assert d.shape == i.shape == (Q.shape[0], out_k)
    for q, d_q, i_q in zip(Q, d, i):
        row = heom_dists_to(q, X, cat_mask)
        ref = np.sort(row)
        if exclude_self and ref[0] < 1e-6:
            ref = ref[1:]
        np.testing.assert_allclose(d_q, ref[:out_k], atol=1e-6)
        # Every returned index is a real row at the reported distance.
        np.testing.assert_allclose(row[i_q], d_q, atol=1e-6)
