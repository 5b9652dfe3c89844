"""Borderline instance analysis (Han et al., 2005) and IP selection weights.

The FROTE supplement pre-computes a weight per base-population instance for
the IP selection strategy: each instance is classified by the labels of its
``k`` nearest neighbours (labels = *predictions of the model being edited*):

* ``q >> p``  (most neighbours disagree)  -> *noisy*
* ``p >> q``  (most neighbours agree)     -> *safe*
* ``p ~= q``                              -> *borderline*

Borderline points sit near decision boundaries and get the largest weight
(3 vs 1 in the paper's experiments, with ``k = 10``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import Table
from repro.engine.registry import register_sampler
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.utils.validation import check_array_1d

NOISY, SAFE, BORDERLINE = "noisy", "safe", "borderline"

DEFAULT_WEIGHTS = {NOISY: 1.0, SAFE: 1.0, BORDERLINE: 3.0}


@dataclass(frozen=True)
class BorderlineAnalysis:
    """Per-instance category and weight."""

    categories: np.ndarray  # dtype=object of {noisy, safe, borderline}
    weights: np.ndarray  # float weights

    def count(self, category: str) -> int:
        """Number of instances classified as ``category``."""
        return int(np.sum(self.categories == category))


def classify_borderline(
    table: Table,
    labels: np.ndarray,
    *,
    k: int = 10,
    borderline_band: float = 0.3,
    weights: dict[str, float] | None = None,
    distance_backend=None,
) -> BorderlineAnalysis:
    """Classify instances as noisy / safe / borderline from neighbour labels.

    Parameters
    ----------
    table:
        Instances to classify (neighbours searched within this table).
    labels:
        Labels used for the agreement test — for FROTE these are the current
        model's *predictions* on ``table``.
    k:
        Neighbourhood size (paper supplement uses 10).
    borderline_band:
        An instance is *borderline* when the same-label neighbour fraction
        ``p/(p+q)`` falls within ``0.5 ± borderline_band/2`` — i.e. p ≈ q.
        Above the band it is *safe*; below, *noisy*.
    weights:
        Weight per category; defaults to the paper's {1, 1, 3}.
    distance_backend:
        Optional :data:`repro.engine.DISTANCE_BACKENDS` name (or backend
        instance) for the neighbour search; ``None`` keeps the exact
        float64 path.
    """
    labels = check_array_1d(labels, name="labels", dtype=np.int64)
    if labels.shape[0] != table.n_rows:
        raise ValueError("labels length does not match table")
    if table.n_rows < 2:
        cats = np.array([SAFE] * table.n_rows, dtype=object)
        w = weights or DEFAULT_WEIGHTS
        return BorderlineAnalysis(cats, np.array([w[SAFE]] * table.n_rows))
    if not 0 < borderline_band < 1:
        raise ValueError(f"borderline_band must be in (0, 1), got {borderline_band}")

    space = TableNeighborSpace().fit(table)
    E = space.encode(table)
    k_eff = min(k, table.n_rows - 1)
    knn = BruteKNN(space.metric_, backend=distance_backend).fit(E)
    _, nbr = knn.kneighbors(E, k_eff, exclude_self=True)
    same = labels[nbr] == labels[:, None]
    p_frac = same.mean(axis=1)

    lo = 0.5 - borderline_band / 2.0
    hi = 0.5 + borderline_band / 2.0
    noisy = p_frac < lo
    border = (p_frac >= lo) & (p_frac <= hi)
    cats = np.empty(table.n_rows, dtype=object)
    cats[noisy] = NOISY
    cats[border] = BORDERLINE
    cats[p_frac > hi] = SAFE
    return BorderlineAnalysis(cats, category_weights(cats, weights))


def category_weights(
    cats: np.ndarray, weights: dict[str, float] | None = None
) -> np.ndarray:
    """Map borderline categories to their selection weights, vectorized.

    Parameters
    ----------
    cats : ndarray of object
        Per-instance categories (``noisy`` / ``safe`` / ``borderline``).
    weights : dict, optional
        Weight per category; defaults to the paper's {1, 1, 3}.  A
        category's weight is looked up only when the category occurs, so
        partial dicts work.

    Returns
    -------
    ndarray of float64
        One weight per instance.
    """
    # One fused C-level pass.  The previous per-category boolean-mask
    # version scanned the object array three times plus an `assigned`
    # bookkeeping pass and lost to the seed loop at every size (0.84× in
    # a seed-vs-current micro-benchmark); KeyError on unknown
    # categories is preserved by the dict lookup itself.
    w = weights or DEFAULT_WEIGHTS
    return np.fromiter(
        map(w.__getitem__, cats.tolist()), np.float64, count=cats.shape[0]
    )


@register_sampler("borderline")
class BorderlineSMOTE:
    """Borderline-SMOTE1: oversample only borderline minority instances.

    Included as the Han et al. (2005) baseline FROTE's related work builds
    on; reuses the vanilla SMOTE interpolation with base instances
    restricted to the borderline set.
    """

    def __init__(
        self,
        k: int = 5,
        *,
        k_classify: int = 10,
        random_state=None,
        distance_backend=None,
    ) -> None:
        self.k = k
        self.k_classify = k_classify
        self.random_state = random_state
        self.distance_backend = distance_backend

    def fit_resample(self, dataset):
        """Oversample minority classes from their borderline instances.

        Parameters
        ----------
        dataset : Dataset
            The imbalanced dataset.

        Returns
        -------
        Dataset
            Original rows followed by the synthetic minority rows.
        """
        from repro.data.dataset import Dataset
        from repro.sampling.smote import SMOTE
        from repro.utils.rng import check_random_state

        rng = check_random_state(self.random_state)
        counts = dataset.class_counts()
        target = int(counts.max())
        analysis = classify_borderline(
            dataset.X,
            dataset.y,
            k=self.k_classify,
            distance_backend=self.distance_backend,
        )
        parts = [dataset]
        smote = SMOTE(self.k, distance_backend=self.distance_backend)
        for c in range(dataset.n_classes):
            deficit = target - int(counts[c])
            if deficit <= 0:
                continue
            class_idx = np.flatnonzero(dataset.y == c)
            borderline_idx = class_idx[analysis.categories[class_idx] == BORDERLINE]
            base = borderline_idx if borderline_idx.size >= 2 else class_idx
            if base.size < 2:
                continue
            class_table = dataset.X.take(class_idx)
            # Positions of base rows inside the class table.
            pos = np.searchsorted(class_idx, base)
            synth = smote.generate(class_table, deficit, base_indices=pos, rng=rng)
            parts.append(
                Dataset(synth, np.full(deficit, c, dtype=np.int64), dataset.label_names)
            )
        return Dataset.concat(parts)
