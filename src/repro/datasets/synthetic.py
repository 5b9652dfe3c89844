"""Shared machinery for the synthetic UCI-equivalent dataset generators.

No network access is available in this reproduction, so each of the paper's
eight UCI datasets (Table 1) is replaced by a seeded generator that matches
its schema (instance count, numeric/nominal feature split, class count) and
plants *conjunctive class structure*: labels are produced by a small
hand-written rule system over the features plus label noise.  That planted
structure is what FROTE's pipeline needs from the data — BRCG-style rule
explanations must exist, and feedback-rule coverages in the 5–25% band must
be constructible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.data.table import Table
from repro.rules.clause import Clause


@dataclass(frozen=True)
class PlantedRule:
    """One ground-truth labelling rule: IF clause THEN class."""

    clause: Clause
    target: int


def labels_from_planted_rules(
    table: Table,
    rules: Sequence[PlantedRule],
    *,
    default_class: int | Callable[[np.random.Generator, int], np.ndarray],
    n_classes: int,
    noise: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Assign labels by first-match over planted rules, then flip noise.

    ``default_class`` may be a fixed class code or a callable producing
    default labels for uncovered rows (for multi-class marginals).
    """
    n = table.n_rows
    if callable(default_class):
        y = np.asarray(default_class(rng, n), dtype=np.int64)
    else:
        y = np.full(n, int(default_class), dtype=np.int64)
    assigned = np.zeros(n, dtype=bool)
    for rule in rules:
        mask = rule.clause.mask(table) & ~assigned
        y[mask] = rule.target
        assigned |= mask
    if noise > 0:
        flip = rng.uniform(size=n) < noise
        y[flip] = rng.integers(0, n_classes, size=int(flip.sum()))
    return y


def sample_categorical(
    rng: np.random.Generator,
    n: int,
    n_categories: int,
    *,
    probs: Sequence[float] | None = None,
) -> np.ndarray:
    """Sample category codes, optionally with a non-uniform marginal."""
    if probs is None:
        return rng.integers(0, n_categories, size=n).astype(np.int64)
    p = np.asarray(probs, dtype=np.float64)
    p = p / p.sum()
    return rng.choice(n_categories, size=n, p=p).astype(np.int64)


def sample_mixture(
    rng: np.random.Generator,
    n: int,
    components: Sequence[tuple[float, float, float]],
) -> np.ndarray:
    """Sample from a 1-D Gaussian mixture given (weight, mean, std) triples."""
    weights = np.array([c[0] for c in components], dtype=np.float64)
    weights /= weights.sum()
    comp = rng.choice(len(components), size=n, p=weights)
    out = np.empty(n)
    for i, (_, mean, std) in enumerate(components):
        mask = comp == i
        out[mask] = rng.normal(mean, std, size=int(mask.sum()))
    return out


def build_dataset(
    schema: Schema,
    columns: Mapping[str, np.ndarray],
    rules: Sequence[PlantedRule],
    label_names: Sequence[str],
    *,
    default_class: int | Callable[[np.random.Generator, int], np.ndarray],
    noise: float,
    rng: np.random.Generator,
) -> Dataset:
    """Assemble a :class:`Dataset` from sampled columns and planted rules."""
    table = Table(schema, columns, copy=False)
    y = labels_from_planted_rules(
        table,
        rules,
        default_class=default_class,
        n_classes=len(tuple(label_names)),
        noise=noise,
        rng=rng,
    )
    return Dataset(table, y, label_names)


def resolve_size(n: int | None, paper_n: int, default_n: int) -> int:
    """Pick the generated size: explicit ``n``, else the scaled default.

    ``default_n`` keeps experiment suites laptop-fast; pass ``n=paper_n``
    to match the paper's instance counts exactly.
    """
    if n is None:
        return default_n
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    return n
