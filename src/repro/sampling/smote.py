"""SMOTE and SMOTE-NC (Chawla et al., 2002) over mixed-type tables.

FROTE's generator extends this classic recipe; the vanilla versions here
serve as the reference implementation, as a baseline in ablations, and as
the class-imbalance utility a downstream user of the library would expect.

* numeric attribute of the synthetic point: uniform on the segment between
  the base instance and one of its ``k`` nearest neighbours (Eq. 6);
* categorical attribute (SMOTE-NC): majority value among the neighbours.

All candidate generation is batched: one ``kneighbors`` call over the base
matrix and one :func:`~repro.sampling.interpolation
.majority_categorical_batch` call per categorical column replace the
original per-sample Python loops while consuming the RNG stream
identically (the test suite's seed oracle under ``tests/perf/`` keeps the
loop versions that ``tests/perf/test_seed_parity.py`` compares against).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.table import Table
from repro.engine.registry import register_sampler
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.sampling.interpolation import (
    interpolate_numeric,
    majority_categorical,
    majority_categorical_batch,
)
from repro.utils.rng import RandomState, check_random_state

__all__ = ["SMOTE", "interpolate_numeric", "majority_categorical"]


@register_sampler("smote")
class SMOTE:
    """Synthetic Minority Oversampling with NC extension for categoricals.

    Parameters
    ----------
    k : int, default 5
        Number of nearest neighbours (paper default 5).
    random_state : int, Generator, or None
        Seed for neighbour choice and interpolation weights.
    """

    def __init__(self, k: int = 5, *, random_state: RandomState = None) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.random_state = random_state

    # ------------------------------------------------------------------ #
    def generate(
        self,
        table: Table,
        n_samples: int,
        *,
        base_indices: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> Table:
        """Generate ``n_samples`` synthetic rows from ``table``.

        Parameters
        ----------
        table : Table
            Source rows; neighbours are searched over the full table.
        n_samples : int
            Number of synthetic rows to produce.
        base_indices : ndarray of int, optional
            Restricts base-instance choice (defaults to all rows).
        rng : numpy.random.Generator, optional
            Overrides the instance's ``random_state`` stream.

        Returns
        -------
        Table
            ``n_samples`` synthetic rows under the source schema.

        Raises
        ------
        ValueError
            If ``table`` has fewer than two rows or ``base_indices`` is
            empty.
        """
        if table.n_rows < 2:
            raise ValueError("need at least 2 rows to interpolate")
        rng = rng if rng is not None else check_random_state(self.random_state)
        if base_indices is None:
            base_indices = np.arange(table.n_rows)
        base_indices = np.asarray(base_indices, dtype=np.intp)
        if base_indices.size == 0:
            raise ValueError("base_indices is empty")

        space = TableNeighborSpace().fit(table)
        E = space.encode(table)
        knn = BruteKNN(space.metric_).fit(E)
        k_eff = min(self.k, table.n_rows - 1)
        _, nbr_idx = knn.kneighbors(E[base_indices], k_eff, exclude_self=True)

        chosen_base = rng.integers(0, base_indices.size, size=n_samples)
        chosen_nbr_col = rng.integers(0, k_eff, size=n_samples)

        schema = table.schema
        columns: dict[str, np.ndarray] = {}
        b_rows = base_indices[chosen_base]
        j_rows = nbr_idx[chosen_base, chosen_nbr_col]
        omegas = rng.uniform(0.0, 1.0, size=n_samples)
        for spec in schema:
            col = table.column(spec.name)
            if spec.is_numeric:
                columns[spec.name] = interpolate_numeric(
                    col[b_rows], col[j_rows], omegas
                )
            else:
                codes = col[nbr_idx[chosen_base]]
                columns[spec.name] = majority_categorical_batch(
                    codes, len(spec.categories), rng
                )
        return Table(schema, columns, copy=False)

    # ------------------------------------------------------------------ #
    def fit_resample(self, dataset: Dataset) -> Dataset:
        """Oversample every minority class up to the majority class count.

        Parameters
        ----------
        dataset : Dataset
            The imbalanced dataset.

        Returns
        -------
        Dataset
            Original rows followed by the synthetic minority rows.
        """
        counts = dataset.class_counts()
        target = int(counts.max())
        rng = check_random_state(self.random_state)
        parts = [dataset]
        for c in range(dataset.n_classes):
            deficit = target - int(counts[c])
            idx = np.flatnonzero(dataset.y == c)
            if deficit <= 0 or idx.size < 2:
                continue
            class_table = dataset.X.take(idx)
            synth = self.generate(class_table, deficit, rng=rng)
            parts.append(
                Dataset(synth, np.full(deficit, c, dtype=np.int64), dataset.label_names)
            )
        return Dataset.concat(parts)
