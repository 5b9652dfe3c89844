"""Tests for distance metrics and the table neighbour space."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Table, make_schema
from repro.neighbors import MixedMetric, TableNeighborSpace, pairwise_euclidean

from tests.conftest import heom_dists_to


class TestPairwiseEuclidean:
    def test_known_values(self):
        A = np.array([[0.0, 0.0]])
        B = np.array([[3.0, 4.0], [0.0, 0.0]])
        np.testing.assert_allclose(pairwise_euclidean(A, B), [[5.0, 0.0]])

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(5, 3))
        D1 = pairwise_euclidean(A, A)
        np.testing.assert_allclose(D1, D1.T, atol=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(10, 4))
        assert np.all(pairwise_euclidean(A, A) >= 0)


class TestMixedMetric:
    def test_pure_numeric_equals_euclidean(self):
        rng = np.random.default_rng(2)
        A, B = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        m = MixedMetric(np.zeros(3, dtype=bool))
        np.testing.assert_allclose(m.pairwise(A, B), pairwise_euclidean(A, B), atol=1e-9)

    def test_categorical_overlap(self):
        m = MixedMetric(np.array([True]))
        A = np.array([[0.0]])
        B = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(m.pairwise(A, B), [[0.0, 1.0]])

    def test_mixed_combines(self):
        m = MixedMetric(np.array([False, True]))
        a = np.array([[1.0, 0.0]])
        b = np.array([[2.0, 1.0]])
        # sqrt(1^2 + 1) = sqrt(2)
        np.testing.assert_allclose(m.pairwise(a, b), [[np.sqrt(2.0)]])

    def test_dists_to_matches_pairwise(self):
        """The direct-difference reference the KNN tests scan with agrees
        with the norm-expansion pairwise matrix."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 4))
        X[:, 3] = rng.integers(0, 3, 20)
        mask = np.array([False, False, False, True])
        m = MixedMetric(mask)
        row = heom_dists_to(X[0], X, mask)
        full = m.pairwise(X[:1], X)[0]
        np.testing.assert_allclose(row, full, atol=1e-9)

    def test_identity_is_zero(self):
        m = MixedMetric(np.array([False, True]))
        x = np.array([[1.5, 2.0]])
        assert m.pairwise(x, x)[0, 0] == pytest.approx(0.0, abs=1e-9)


class TestTableNeighborSpace:
    def _table(self, n=50, seed=0):
        schema = make_schema(numeric=["a"], categorical={"c": ("x", "y")})
        rng = np.random.default_rng(seed)
        return Table(
            schema, {"a": rng.uniform(0, 100, n), "c": rng.integers(0, 2, n)}
        )

    def test_numeric_scaled_to_unit_range(self):
        t = self._table()
        E = TableNeighborSpace().fit_encode(t)
        assert E[:, 0].min() >= 0.0 and E[:, 0].max() <= 1.0

    def test_metric_cat_mask(self):
        t = self._table()
        space = TableNeighborSpace().fit(t)
        np.testing.assert_array_equal(space.metric_.cat_mask, [False, True])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TableNeighborSpace().encode(self._table())

    def test_schema_mismatch_raises(self):
        space = TableNeighborSpace().fit(self._table())
        other = Table(make_schema(numeric=["a"]), {"a": np.zeros(1)})
        with pytest.raises(ValueError, match="schema"):
            space.encode(other)

    def test_constant_column_handled(self):
        schema = make_schema(numeric=["a"])
        t = Table(schema, {"a": np.full(5, 3.0)})
        E = TableNeighborSpace().fit_encode(t)
        assert np.all(np.isfinite(E))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_triangle_inequality_property(seed):
    """HEOM must satisfy the triangle inequality (ball tree correctness)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(3, 4))
    X[:, 2] = rng.integers(0, 3, 3)
    X[:, 3] = rng.integers(0, 2, 3)
    m = MixedMetric(np.array([False, False, True, True]))
    D = m.pairwise(X, X)
    assert D[0, 2] <= D[0, 1] + D[1, 2] + 1e-9
