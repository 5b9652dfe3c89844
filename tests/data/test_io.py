"""Tests for CSV import/export."""

import numpy as np
import pytest

from repro.data import (
    infer_schema,
    make_schema,
    read_csv,
    read_csv_text,
    to_csv_text,
    write_csv,
)

CSV = """age,color,label
25,red,yes
40,blue,no
31,red,yes
"""


class TestReadCsv:
    def test_basic_parse(self):
        ds = read_csv_text(CSV, label_column="label")
        assert ds.n == 3
        assert ds.label_names == ("no", "yes")
        assert ds.X.schema["age"].is_numeric
        assert ds.X.schema["color"].is_categorical

    def test_labels_encoded(self):
        ds = read_csv_text(CSV, label_column="label")
        assert ds.y.tolist() == [1, 0, 1]

    def test_explicit_label_names(self):
        ds = read_csv_text(CSV, label_column="label", label_names=("yes", "no"))
        assert ds.y.tolist() == [0, 1, 0]

    def test_explicit_schema(self):
        schema = make_schema(
            numeric=["age"], categorical={"color": ("red", "blue", "green")}
        )
        ds = read_csv_text(CSV, label_column="label", schema=schema)
        assert ds.X.schema["color"].categories == ("red", "blue", "green")

    def test_missing_label_column_raises(self):
        with pytest.raises(ValueError, match="label column"):
            read_csv_text(CSV, label_column="target")

    def test_unknown_label_value_raises(self):
        with pytest.raises(ValueError, match="not in label_names"):
            read_csv_text(CSV, label_column="label", label_names=("maybe", "no"))

    def test_empty_csv_raises(self):
        with pytest.raises(ValueError, match="empty"):
            read_csv_text("", label_column="label")

    def test_missing_numeric_value_raises(self):
        bad = "age,label\n1,yes\n,no\n"
        with pytest.raises(ValueError, match="missing values"):
            read_csv_text(bad, label_column="label")

    def test_schema_column_missing_from_csv_raises(self):
        schema = make_schema(numeric=["height"])
        with pytest.raises(ValueError, match="missing from CSV"):
            read_csv_text(CSV, label_column="label", schema=schema)

    def test_read_from_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV)
        ds = read_csv(path, label_column="label")
        assert ds.n == 3


class TestInferSchema:
    def test_numeric_detection(self):
        schema = infer_schema(["a", "b"], [["1.5", "x"], ["2", "y"]])
        assert schema["a"].is_numeric
        assert schema["b"].is_categorical

    def test_exclude(self):
        schema = infer_schema(["a", "b"], [["1", "x"]], exclude=["b"])
        assert "b" not in schema

    def test_single_category_padded(self):
        schema = infer_schema(["c"], [["only"], ["only"]])
        assert len(schema["c"].categories) >= 2


class TestWriteCsv:
    def test_roundtrip(self, mixed_dataset, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(mixed_dataset, path)
        back = read_csv(
            path,
            label_column="label",
            schema=mixed_dataset.X.schema,
            label_names=mixed_dataset.label_names,
        )
        assert back.n == mixed_dataset.n
        np.testing.assert_array_equal(back.y, mixed_dataset.y)
        np.testing.assert_allclose(
            back.X.column("age"), mixed_dataset.X.column("age")
        )
        np.testing.assert_array_equal(
            back.X.column("marital"), mixed_dataset.X.column("marital")
        )

    def test_label_collision_raises(self, mixed_dataset):
        with pytest.raises(ValueError, match="collides"):
            to_csv_text(mixed_dataset, label_column="age")

    def test_categoricals_decoded(self, mixed_dataset):
        text = to_csv_text(mixed_dataset)
        assert "single" in text or "married" in text
