"""Shared mixed-type interpolation helpers for the SMOTE-family generators.

Every SMOTE-style generator in this package builds synthetic rows the same
way: numeric attributes interpolate along the base→neighbour segment
(paper Eq. 6) and categorical attributes aggregate the neighbourhood's
codes.  This module holds the batch (matrix-at-a-time) primitives those
generators share, so :mod:`repro.sampling.smote`,
:mod:`repro.sampling.adasyn`, :mod:`repro.sampling.borderline`, and
:mod:`repro.sampling.rule_generation` all vectorize the same way.

The batch helpers are **RNG-stream compatible** with their scalar
counterparts: calling :func:`majority_categorical_batch` consumes random
numbers in exactly the order the original per-sample loop over
:func:`majority_categorical` did, so fixed-seed outputs are bit-for-bit
identical (the test suite's seed oracle under ``tests/perf/`` keeps the
loop versions and ``tests/perf/test_seed_parity.py`` pins the
equivalence).
"""

from __future__ import annotations

import numpy as np


def interpolate_numeric(
    base: np.ndarray, neighbor: np.ndarray, omega: np.ndarray
) -> np.ndarray:
    """Interpolate numeric values along base→neighbour segments (paper Eq. 6).

    Parameters
    ----------
    base : ndarray of shape (n,)
        Attribute values of the base instances.
    neighbor : ndarray of shape (n,)
        Attribute values of the chosen neighbours.
    omega : ndarray of shape (n,)
        Interpolation weights in ``[0, 1]``.

    Returns
    -------
    ndarray of shape (n,)
        ``base + (neighbor - base) * omega`` element-wise.
    """
    return base + (neighbor - base) * omega


def category_counts(codes: np.ndarray, n_categories: int) -> np.ndarray:
    """Count category occurrences per row of a neighbour-code matrix.

    Parameters
    ----------
    codes : ndarray of shape (n, k) of integer codes
        One row of neighbour codes per synthetic sample.
    n_categories : int
        Number of valid codes; counts are padded to this width.

    Returns
    -------
    ndarray of shape (n, n_categories) of int64
        ``out[i, c]`` is how often code ``c`` appears in ``codes[i]``.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.shape[0]
    # One flat bincount over row-offset codes beats np.add.at (an
    # unbuffered ufunc loop) by an order of magnitude on this shape.
    offset = codes + np.arange(n, dtype=np.int64)[:, None] * n_categories
    return np.bincount(offset.ravel(), minlength=n * n_categories).reshape(
        n, n_categories
    )


def majority_categorical(
    neighbor_codes: np.ndarray, rng: np.random.Generator
) -> int:
    """Pick the most frequent code among one sample's neighbours.

    Parameters
    ----------
    neighbor_codes : ndarray of shape (k,) of integer codes
        Neighbour values of one categorical attribute.
    rng : numpy.random.Generator
        Consulted only to break ties (uniformly over the tied codes).

    Returns
    -------
    int
        The winning category code.
    """
    counts = np.bincount(neighbor_codes)
    top = np.flatnonzero(counts == counts.max())
    return int(top[rng.integers(top.size)]) if top.size > 1 else int(top[0])


def majority_categorical_batch(
    codes: np.ndarray, n_categories: int, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized :func:`majority_categorical` over a whole code matrix.

    Parameters
    ----------
    codes : ndarray of shape (n, k) of integer codes
        One row of neighbour codes per synthetic sample.
    n_categories : int
        Width of the category alphabet.
    rng : numpy.random.Generator
        Consulted once per *tied* row, in row order — the same stream
        consumption as a per-row loop over :func:`majority_categorical`.

    Returns
    -------
    ndarray of shape (n,) of int64
        Majority code per row; ties broken uniformly at random.
    """
    counts = category_counts(codes, n_categories)
    max_counts = counts.max(axis=1, keepdims=True)
    is_top = counts == max_counts
    winners = np.argmax(is_top, axis=1).astype(np.int64)
    tied_rows = np.flatnonzero(is_top.sum(axis=1) > 1)
    for r in tied_rows:
        top = np.flatnonzero(is_top[r])
        winners[r] = top[rng.integers(top.size)]
    return winners


def choose_neighbors(
    nbr_idx: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one neighbour column per row plus interpolation weights.

    Parameters
    ----------
    nbr_idx : ndarray of shape (n, k)
        Neighbour index matrix (row ``i`` holds sample ``i``'s candidates).
    rng : numpy.random.Generator
        Source for the column choices and the ``omega`` weights.

    Returns
    -------
    chosen : ndarray of shape (n,)
        One neighbour index per row.
    omega : ndarray of shape (n,)
        Uniform interpolation weights in ``[0, 1)``.
    """
    n, k = nbr_idx.shape
    cols = rng.integers(0, k, size=n)
    chosen = nbr_idx[np.arange(n), cols]
    omega = rng.uniform(0.0, 1.0, size=n)
    return chosen, omega
