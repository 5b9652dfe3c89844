"""Shared helpers for the serving-layer tests (imported as ``serveutil``).

All async tests in this package run through ``asyncio.run`` inside sync
test functions (the test environment has no pytest-asyncio plugin).
"""

from __future__ import annotations

import numpy as np

import repro
from repro.data import Dataset, Table, make_schema

SCHEMA = make_schema(
    numeric=["age", "income"],
    categorical={"marital": ("single", "married", "divorced")},
)


def make_dataset(n: int, seed: int) -> Dataset:
    """Small binary dataset with planted rule structure."""
    rng = np.random.default_rng(seed)
    table = Table(
        SCHEMA,
        {
            "age": rng.uniform(18, 80, n),
            "income": rng.uniform(10, 200, n),
            "marital": rng.integers(0, 3, n),
        },
    )
    y = ((table.column("age") < 40) & (table.column("income") > 100)).astype(
        np.int64
    )
    noise = rng.uniform(size=n) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(table, y, ("deny", "approve"))


def make_spec(n: int = 250, tau: int = 4, seed: int = 42, **configure):
    """A ready-to-run EditSession over its own dataset."""
    return (
        repro.edit(make_dataset(n, seed))
        .with_rules(
            "age < 35 => approve",
            "income < 40 AND marital = 'single' => deny",
        )
        .with_algorithm("LR")
        .configure(tau=tau, q=0.5, random_state=seed, **configure)
    )

