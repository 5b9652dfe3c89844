"""Tests for TableModel and the training-algorithm wrapper."""

import numpy as np
import pytest

from repro.data import Dataset
from repro.models import (
    LogisticRegression,
    TableModel,
    make_algorithm,
    paper_algorithm,
    predict_from_proba,
)
from repro.models import MODELS

from tests.conftest import make_tiny_dataset


class TestPredictFromProba:
    def test_argmax(self):
        proba = np.array([[0.2, 0.8], [0.9, 0.1]])
        np.testing.assert_array_equal(predict_from_proba(proba), [1, 0])

    def test_dtype(self):
        assert predict_from_proba(np.array([[1.0, 0.0]])).dtype == np.int64


class TestTableModel:
    def test_fit_predict(self, mixed_dataset):
        m = TableModel(LogisticRegression()).fit(mixed_dataset)
        pred = m.predict(mixed_dataset.X)
        assert (pred == mixed_dataset.y).mean() > 0.8

    def test_proba_shape(self, mixed_dataset):
        m = TableModel(LogisticRegression()).fit(mixed_dataset)
        P = m.predict_proba(mixed_dataset.X)
        assert P.shape == (mixed_dataset.n, 2)

    def test_unfitted_raises(self, mixed_dataset):
        with pytest.raises(RuntimeError):
            TableModel(LogisticRegression()).predict(mixed_dataset.X)

    def test_single_class_training_set_constant(self):
        ds = make_tiny_dataset(40)
        only_pos = ds.loc_mask(ds.y == 1)
        m = TableModel(LogisticRegression()).fit(only_pos)
        pred = m.predict(ds.X)
        assert (pred == 1).all()

    def test_constant_model_proba(self):
        ds = make_tiny_dataset(40)
        only_neg = ds.loc_mask(ds.y == 0)
        m = TableModel(LogisticRegression()).fit(only_neg)
        P = m.predict_proba(ds.X)
        np.testing.assert_allclose(P[:, 0], 1.0)

    def test_n_classes_from_label_names(self):
        ds = make_tiny_dataset(60)
        # Class codes only {0, 1}, but declare a 3-class problem.
        ds3 = Dataset(ds.X, ds.y, ("a", "b", "c"))
        m = TableModel(LogisticRegression()).fit(ds3)
        assert m.predict_proba(ds.X).shape[1] == 3


class TestMakeAlgorithm:
    def test_returns_fresh_models(self):
        ds = make_tiny_dataset()
        alg = make_algorithm(lambda: LogisticRegression())
        m1, m2 = alg(ds), alg(ds)
        assert m1 is not m2
        assert m1.estimator is not m2.estimator

    def test_predictions_work(self):
        ds = make_tiny_dataset()
        alg = make_algorithm(lambda: LogisticRegression())
        assert (alg(ds).predict(ds.X) == ds.y).mean() > 0.8


class TestPaperAlgorithms:
    @pytest.mark.parametrize("name", sorted(n for n in MODELS if MODELS[n].paper))
    def test_each_paper_model_trains(self, name):
        ds = make_tiny_dataset(80)
        model = paper_algorithm(name)(ds)
        pred = model.predict(ds.X)
        assert pred.shape == (ds.n,)
        assert (pred == ds.y).mean() > 0.6

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            paper_algorithm("XGB")
        with pytest.raises(KeyError, match="choose from"):
            paper_algorithm("KNN")  # registered, but not one of the paper's
