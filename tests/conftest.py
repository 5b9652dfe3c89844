"""Shared fixtures (small schemas, tables, datasets, rule sets) and the
one run-equality helper every mode-parity test asserts with."""

from __future__ import annotations

import itertools
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.data import Dataset, Table, make_schema
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause
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


def make_mixed_dataset(n: int = 200, seed: int = 7) -> Dataset:
    """Binary dataset over ``synthetic_mixed_table(n, seed)`` with
    learnable structure (``mixed_dataset`` is the default draw)."""
    table = synthetic_mixed_table(n, seed)
    age = table.column("age")
    income = table.column("income")
    rng = np.random.default_rng(13)
    y = ((age < 40) & (income > 100)).astype(np.int64)
    noise = rng.uniform(size=n) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(table, y, ("deny", "approve"))


@pytest.fixture
def mixed_dataset():
    return make_mixed_dataset()


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


def _assert_same_array(a, b, tol: float) -> None:
    a, b = np.asarray(a), np.asarray(b)
    if tol:
        np.testing.assert_allclose(a, b, rtol=0, atol=tol)
        return
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_run(a, b, *, tol: float = 0.0) -> None:
    """Assert two ``FroteResult`` s record the same run.

    Counters, the schema and its migration lineage, the rule timeline,
    every column of the final dataset, the labels, the per-iteration
    history and the initial and final evaluations are compared.  With
    ``tol == 0`` (the bitwise contract) arrays must match byte for byte
    and every other field exactly; with ``tol > 0`` (a numeric
    envelope) the history's and the evaluations' float fields may differ
    by at most ``tol``.
    """

    def same(x, y) -> None:
        if tol and isinstance(x, float):
            assert y == pytest.approx(x, rel=0, abs=tol, nan_ok=True)
        else:
            assert x == y

    for name in ("iterations", "n_added", "n_relabelled", "n_dropped"):
        assert getattr(a, name) == getattr(b, name), name
    assert [r.version for r in a.schema_log] == [r.version for r in b.schema_log]
    # The rule timeline, minus provenance (a streamed and a scheduled rule
    # name different origins).
    assert [(d.kind, d.iteration, d.rules_added) for d in a.ruleset_log] == [
        (d.kind, d.iteration, d.rules_added) for d in b.ruleset_log
    ]
    assert len(a.history) == len(b.history)
    for ra, rb in zip(a.history, b.history):
        for f in fields(ra):
            same(getattr(ra, f.name), getattr(rb, f.name))
    schema = a.dataset.X.schema
    assert schema == b.dataset.X.schema
    for name in schema.names:
        _assert_same_array(a.dataset.X.column(name), b.dataset.X.column(name), 0.0)
    _assert_same_array(a.dataset.y, b.dataset.y, 0.0)
    for ea, eb in (
        (a.initial_evaluation, b.initial_evaluation),
        (a.final_evaluation, b.final_evaluation),
    ):
        _assert_same_array(ea.per_rule_mra, eb.per_rule_mra, tol)
        _assert_same_array(ea.per_rule_count, eb.per_rule_count, 0.0)
        for name in ("mra", "f1_outside", "n_covered", "n_outside"):
            same(getattr(ea, name), getattr(eb, name))


class SimulatedCrash(RuntimeError):
    """An in-process stand-in for a process dying mid-iteration."""


def crash_at_fit(at_fit: int):
    """The paper's LR algorithm, raising :class:`SimulatedCrash` in its
    ``at_fit``-th fit (setup fits once, then each iteration once).  It
    carries LR's ``identity``, so an LR session resumes its journal."""
    from repro.models import paper_algorithm

    fit = paper_algorithm("LR")
    fits = itertools.count(1)

    def crashing(dataset):
        if next(fits) == at_fit:
            raise SimulatedCrash(f"fit #{at_fit}")
        return fit(dataset)

    crashing.identity = fit.identity
    return crashing


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
