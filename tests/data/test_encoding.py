"""Tests for feature encoders."""

import numpy as np
import pytest

from repro.data import OrdinalEncoder, StandardScaler, Table, TabularEncoder, make_schema


@pytest.fixture
def table():
    schema = make_schema(numeric=["x", "y"], categorical={"c": ("a", "b", "z")})
    return Table(
        schema,
        {
            "x": np.array([1.0, 2.0, 3.0, 4.0]),
            "y": np.array([10.0, 10.0, 10.0, 10.0]),
            "c": np.array([0, 1, 2, 0]),
        },
    )


class TestStandardScaler:
    def test_zero_mean_unit_var(self):
        X = np.random.default_rng(0).normal(5, 3, (100, 2))
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        X = np.full((5, 1), 3.0)
        Z = StandardScaler().fit_transform(X)
        np.testing.assert_allclose(Z, 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))

    def test_transform_into_out_matches_new_array(self):
        X = np.random.default_rng(1).normal(5, 3, (20, 3))
        scaler = StandardScaler().fit(X)
        expected = (X - scaler.mean_) / scaler.scale_
        buf = np.zeros((20, 5))
        view = buf[:, 1:4]
        view[...] = X
        assert scaler.transform(view, out=view) is view
        assert buf[:, 1:4].tobytes() == expected.tobytes()
        assert not buf[:, [0, 4]].any()
        assert scaler.transform(X).tobytes() == expected.tobytes()


class TestTabularEncoder:
    def test_shape(self, table):
        M = TabularEncoder().fit_transform(table)
        assert M.shape == (4, 2 + 3)

    def test_feature_names(self, table):
        enc = TabularEncoder().fit(table)
        assert enc.feature_names == ("x", "y", "c=a", "c=b", "c=z")
        assert enc.n_features == 5

    def test_onehot_correct(self, table):
        M = TabularEncoder(standardize=False).fit_transform(table)
        np.testing.assert_array_equal(M[:, 2:], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_standardize_numeric(self, table):
        M = TabularEncoder(standardize=True).fit_transform(table)
        np.testing.assert_allclose(M[:, 0].mean(), 0, atol=1e-12)
        # Constant column y maps to zero, not NaN.
        np.testing.assert_allclose(M[:, 1], 0.0)

    def test_no_standardize(self, table):
        M = TabularEncoder(standardize=False).fit_transform(table)
        np.testing.assert_array_equal(M[:, 0], [1, 2, 3, 4])

    def test_transform_consistency_on_new_rows(self, table):
        enc = TabularEncoder().fit(table)
        sub = table.take(np.array([0, 3]))
        M_full = enc.transform(table)
        M_sub = enc.transform(sub)
        np.testing.assert_allclose(M_sub, M_full[[0, 3]])

    def test_schema_mismatch_raises(self, table):
        enc = TabularEncoder().fit(table)
        other = Table(make_schema(numeric=["x"]), {"x": np.zeros(1)})
        with pytest.raises(ValueError, match="schema"):
            enc.transform(other)

    def test_unfitted_raises(self, table):
        with pytest.raises(RuntimeError):
            TabularEncoder().transform(table)

    def test_empty_table(self, table):
        enc = TabularEncoder().fit(table)
        empty = table.loc_mask(np.zeros(4, dtype=bool))
        assert enc.transform(empty).shape == (0, 5)

    def test_out_of_vocabulary_code_raises(self):
        """A code past its block's vocabulary must not set a one in the
        next block's columns."""
        schema = make_schema(categorical={"c": ("a", "b"), "d": ("u", "v", "w")})
        enc = TabularEncoder().fit(
            Table(schema, {"c": np.array([0, 1]), "d": np.array([0, 2])})
        )
        # Table() refuses such codes; _wrap takes them unchecked.
        bad = Table._wrap(schema, {"c": np.array([2]), "d": np.array([0])}, 1)
        with pytest.raises(IndexError):
            enc.transform(bad)


class TestOrdinalEncoder:
    def test_shape_one_column_per_feature(self, table):
        M = OrdinalEncoder().fit_transform(table)
        assert M.shape == (4, 3)

    def test_categorical_codes_kept(self, table):
        M = OrdinalEncoder().fit_transform(table)
        np.testing.assert_array_equal(M[:, 2], [0, 1, 2, 0])

    def test_unfitted_raises(self, table):
        with pytest.raises(RuntimeError):
            OrdinalEncoder().transform(table)

    def test_schema_mismatch_raises(self, table):
        enc = OrdinalEncoder().fit(table)
        other = Table(make_schema(numeric=["x"]), {"x": np.zeros(1)})
        with pytest.raises(ValueError, match="schema"):
            enc.transform(other)
