"""Shared fixtures: small schemas, tables, datasets, and rule sets."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import Dataset, Table, make_schema
from repro.rules import Clause, FeedbackRule, FeedbackRuleSet, Predicate, clause
from repro.serve.cli import synthetic_mixed_table

# Every test directory can ``import seed_reference``, the seed oracle in perf/.
sys.path.insert(0, str(Path(__file__).parent / "perf"))


@pytest.fixture
def mixed_schema():
    """Two numeric + two categorical columns."""
    return make_schema(
        numeric=["age", "income"],
        categorical={
            "marital": ("single", "married", "divorced"),
            "color": ("red", "green", "blue"),
        },
    )


@pytest.fixture
def mixed_table():
    """Deterministic 200-row mixed-type table over ``mixed_schema``."""
    return synthetic_mixed_table(200, 7)


@pytest.fixture
def mixed_dataset(mixed_table):
    """Binary dataset over mixed_table with learnable structure."""
    age = mixed_table.column("age")
    income = mixed_table.column("income")
    rng = np.random.default_rng(13)
    y = ((age < 40) & (income > 100)).astype(np.int64)
    noise = rng.uniform(size=mixed_table.n_rows) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(mixed_table, y, ("deny", "approve"))


@pytest.fixture
def young_rule(mixed_dataset):
    """Deterministic rule: age < 35 -> approve."""
    return FeedbackRule.deterministic(
        clause(Predicate("age", "<", 35.0)), 1, 2, name="young-approve"
    )


@pytest.fixture
def single_rule_frs(young_rule):
    return FeedbackRuleSet((young_rule,))


@pytest.fixture
def two_rule_frs(mixed_dataset):
    r1 = FeedbackRule.deterministic(
        clause(Predicate("age", "<", 30.0)), 1, 2, name="r1"
    )
    r2 = FeedbackRule.deterministic(
        clause(Predicate("income", ">", 150.0), Predicate("age", ">=", 30.0)),
        0,
        2,
        name="r2",
    )
    return FeedbackRuleSet((r1, r2))


def make_tiny_dataset(n: int = 60, seed: int = 0) -> Dataset:
    """Standalone helper for tests that need their own dataset."""
    schema = make_schema(
        numeric=["x1", "x2"],
        categorical={"c1": ("a", "b")},
    )
    rng = np.random.default_rng(seed)
    t = Table(
        schema,
        {
            "x1": rng.normal(0, 1, n),
            "x2": rng.normal(0, 1, n),
            "c1": rng.integers(0, 2, n),
        },
    )
    y = (t.column("x1") + 0.5 * t.column("x2") > 0).astype(np.int64)
    return Dataset(t, y, ("neg", "pos"))


def heom_dists_to(q, X, cat_mask) -> np.ndarray:
    """Distances from one row ``q`` to every row of ``X`` by direct
    differences: squared differences on numeric columns, 0/1 overlap on
    the columns ``cat_mask`` marks categorical (none marked is plain
    Euclidean).  An independent reference for the norm-expansion metrics
    in :mod:`repro.neighbors.distance`."""
    q = np.asarray(q, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    cat = np.asarray(cat_mask, dtype=bool)
    diff = X[:, ~cat] - q[~cat]
    sq = (diff * diff).sum(axis=1) + (X[:, cat] != q[cat]).sum(axis=1)
    return np.sqrt(sq)
