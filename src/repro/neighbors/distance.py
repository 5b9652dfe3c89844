"""Distance metrics for mixed numeric/categorical tabular data.

SMOTE-NC style neighbour search needs a metric that treats numeric and
categorical features coherently.  We use HEOM (Heterogeneous
Euclidean-Overlap Metric): numeric differences are range-normalized, and a
categorical contributes 0 when the values match and 1 otherwise.

Tables are first *encoded* into a dense float matrix (numeric columns scaled
by their training range, categorical columns kept as raw codes) together
with a boolean mask telling the metric which columns are categorical.  This
keeps all distance computations vectorized.

Each metric computes *squared* distances once (:func:`sq_euclidean`,
:meth:`MixedMetric.pairwise_sq`), unclipped: the norm expansion
``a² + b² - 2ab`` can leave a slightly negative residue for near-identical
rows.  Distances are always :func:`dists_from_sq` of them,
``sqrt(maximum(sq, 0))``, whether for a whole matrix (``pairwise``) or for
the few entries the exact top-k selection in :mod:`repro.neighbors.brute`
picks from the squared matrix.  That selection is exact because the map is
monotone: the smallest squared distances are the smallest distances.  The
map is not strictly monotone (every negative residue becomes 0, and
``sqrt`` can round distinct squares to one distance), so ties are judged
on the mapped distances, and tied rows go to argpartition.
"""

from __future__ import annotations

import numpy as np

from repro.data.table import Table


def dists_from_sq(sq: np.ndarray) -> np.ndarray:
    """Distances ``sqrt(maximum(sq, 0))`` from squared distances, in place.

    The one map from squared distance to distance: :func:`pairwise_euclidean`,
    :meth:`MixedMetric.pairwise` and the exact top-k selection in
    :mod:`repro.neighbors.brute` all go through it, so a distance computed
    for a whole matrix and one computed for a few selected entries carry the
    same bits.  Clipping at zero absorbs the negative rounding residue of
    the norm expansion.
    """
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq, out=sq)


def sq_euclidean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense pairwise squared Euclidean distances (norm expansion, unclipped).

    Entries of near-identical rows can come out slightly negative.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    aa = np.einsum("ij,ij->i", A, A)[:, None]
    bb = np.einsum("ij,ij->i", B, B)[None, :]
    return aa + bb - 2.0 * (A @ B.T)


def pairwise_euclidean(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense pairwise Euclidean distances between rows of ``A`` and ``B``."""
    return dists_from_sq(sq_euclidean(A, B))


class MixedMetric:
    """HEOM-style metric over encoded matrices.

    Parameters
    ----------
    cat_mask:
        Boolean array, one entry per encoded column; True for categorical
        (overlap) columns, False for numeric (squared-difference) columns.
    """

    def __init__(self, cat_mask: np.ndarray) -> None:
        self.cat_mask = np.asarray(cat_mask, dtype=bool)
        self.num_idx = np.flatnonzero(~self.cat_mask)
        self.cat_idx = np.flatnonzero(self.cat_mask)

    @property
    def n_features(self) -> int:
        """Number of encoded columns the metric expects."""
        return self.cat_mask.size

    def pairwise_sq(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Squared distances between rows of ``A`` and ``B`` (unclipped)."""
        A = np.asarray(A, dtype=np.float64)
        B = np.asarray(B, dtype=np.float64)
        if self.num_idx.size:
            sq = sq_euclidean(A[:, self.num_idx], B[:, self.num_idx])
        else:
            sq = np.zeros((A.shape[0], B.shape[0]), dtype=np.float64)
        if self.cat_idx.size:
            # Overlap term accumulated one categorical column at a time to
            # avoid materializing a 3-D comparison tensor.
            for j in self.cat_idx:
                sq += A[:, j][:, None] != B[:, j][None, :]
        return sq

    def pairwise(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Full pairwise distance matrix between rows of ``A`` and ``B``."""
        return dists_from_sq(self.pairwise_sq(A, B))


class TableNeighborSpace:
    """Encode :class:`Table` rows into the HEOM metric space.

    Numeric columns are divided by their (fit-time) range so each feature
    contributes at most ~1 to the squared distance, matching the categorical
    overlap term's scale.

    Use :meth:`fit` on a reference table (typically the full training data)
    and :meth:`encode` on any table with the same schema.

    Attributes
    ----------
    bounds_ : dict of str to (float, float)
        Each numeric column's fit-time ``(min, max)``; ``(0.0, 1.0)`` for a
        column with no rows.  The rule-constrained generator's window
        fallbacks read them, so one fit serves both.
    """

    def __init__(self) -> None:
        self._ranges: np.ndarray | None = None
        self._mins: np.ndarray | None = None
        self.bounds_: dict[str, tuple[float, float]] = {}
        self.schema_ = None
        self.metric_: MixedMetric | None = None

    def fit(self, table: Table) -> "TableNeighborSpace":
        """Learn per-column scaling from a reference table.

        Parameters
        ----------
        table : Table
            Reference rows; numeric ranges are taken from its columns.

        Returns
        -------
        TableNeighborSpace
            ``self``, for chaining.
        """
        self.schema_ = table.schema
        num_names = table.schema.numeric_names
        mins = np.zeros(len(num_names))
        ranges = np.ones(len(num_names))
        bounds = {}
        for i, name in enumerate(num_names):
            col = table.column(name)
            if col.size:
                lo, hi = float(col.min()), float(col.max())
                mins[i] = lo
                ranges[i] = (hi - lo) if hi > lo else 1.0
                bounds[name] = (lo, hi)
            else:
                bounds[name] = (0.0, 1.0)
        self._mins = mins
        self._ranges = ranges
        self.bounds_ = bounds
        n_num = len(num_names)
        n_cat = len(table.schema.categorical_names)
        cat_mask = np.zeros(n_num + n_cat, dtype=bool)
        cat_mask[n_num:] = True
        self.metric_ = MixedMetric(cat_mask)
        return self

    def encode(self, table: Table) -> np.ndarray:
        """Return the encoded matrix: scaled numerics then categorical codes."""
        if self.schema_ is None or self._ranges is None or self._mins is None:
            raise RuntimeError("TableNeighborSpace is not fitted")
        if table.schema != self.schema_:
            raise ValueError("table schema does not match the fitted schema")
        blocks: list[np.ndarray] = []
        num_names = self.schema_.numeric_names
        if num_names:
            num = np.column_stack([table.column(n) for n in num_names])
            blocks.append((num - self._mins) / self._ranges)
        cat_names = self.schema_.categorical_names
        if cat_names:
            blocks.append(
                np.column_stack([table.column(n) for n in cat_names]).astype(np.float64)
            )
        if not blocks:
            return np.zeros((table.n_rows, 0))
        return np.hstack(blocks)

    def fit_encode(self, table: Table) -> np.ndarray:
        """Fit on ``table`` and return its encoding in one call."""
        return self.fit(table).encode(table)
