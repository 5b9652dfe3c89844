"""ADASYN (He et al., 2008): density-adaptive synthetic oversampling.

The paper's related-work section surveys oversampling alternatives; ADASYN
is the canonical density-adaptive one — minority instances with more
majority-class neighbours (harder to learn) receive proportionally more
synthetic offspring.  Included both as a standalone imbalance utility and
as an alternative FROTE base-instance weighting in ablations.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.engine.registry import register_sampler
from repro.data.table import Table
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.sampling.smote import SMOTE
from repro.utils.rng import RandomState, check_random_state


def adasyn_weights(
    table: Table, is_minority: np.ndarray, *, k: int = 5
) -> np.ndarray:
    """Per-minority-instance generation weights.

    Weight of minority instance i is the fraction of its ``k`` nearest
    neighbours (over the whole table) that are *not* minority, normalized
    to sum to 1.  Uniform when every minority point is isolated equally.
    """
    is_minority = np.asarray(is_minority, dtype=bool)
    if is_minority.shape != (table.n_rows,):
        raise ValueError("is_minority mask does not match table")
    minority_idx = np.flatnonzero(is_minority)
    if minority_idx.size == 0:
        return np.empty(0)
    if table.n_rows < 2:
        return np.ones(minority_idx.size) / minority_idx.size
    space = TableNeighborSpace().fit(table)
    E = space.encode(table)
    k_eff = min(k, table.n_rows - 1)
    knn = BruteKNN(space.metric_).fit(E)
    _, nbr = knn.kneighbors(E[minority_idx], k_eff, exclude_self=True)
    majority_frac = (~is_minority[nbr]).mean(axis=1)
    total = majority_frac.sum()
    if total <= 0:
        return np.ones(minority_idx.size) / minority_idx.size
    return majority_frac / total


@register_sampler("adasyn")
class ADASYN:
    """Adaptive synthetic oversampling to class balance.

    Parameters
    ----------
    k:
        Neighbourhood size for both the density weights and the SMOTE
        interpolation step.
    random_state:
        Seed for weight-proportional base sampling and interpolation.
    """

    def __init__(self, k: int = 5, *, random_state: RandomState = None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.random_state = random_state

    def fit_resample(self, dataset: Dataset) -> Dataset:
        """Oversample every minority class to the majority class count.

        Synthesis effort is allocated per base instance by local majority
        density (the ADASYN weights), then interpolation proceeds as in
        SMOTE within each class.

        Parameters
        ----------
        dataset : Dataset
            The imbalanced dataset.

        Returns
        -------
        Dataset
            Original rows followed by the synthetic minority rows.
        """
        rng = check_random_state(self.random_state)
        counts = dataset.class_counts()
        target = int(counts.max())
        smote = SMOTE(self.k)
        parts = [dataset]
        for c in range(dataset.n_classes):
            deficit = target - int(counts[c])
            class_idx = np.flatnonzero(dataset.y == c)
            if deficit <= 0 or class_idx.size < 2:
                continue
            weights = adasyn_weights(dataset.X, dataset.y == c, k=self.k)
            # Draw base instances proportionally to the density weights,
            # then interpolate within the class like SMOTE.
            base_draws = rng.choice(class_idx.size, size=deficit, p=weights)
            class_table = dataset.X.take(class_idx)
            synth = smote.generate(
                class_table,
                deficit,
                base_indices=np.unique(base_draws),
                rng=rng,
            )
            parts.append(
                Dataset(
                    synth,
                    np.full(deficit, c, dtype=np.int64),
                    dataset.label_names,
                )
            )
        return Dataset.concat(parts)
