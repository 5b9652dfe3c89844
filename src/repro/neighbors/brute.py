"""Brute-force k-nearest-neighbour search.

A query computes the full matrix of squared distances and picks each
query row's ``k_eff`` nearest fitted rows (``k``, plus one with
``exclude_self``) by *min sweeps*: each sweep takes every row's
``argmin``, records it and masks it with ``+inf``; the masked entries are
restored afterwards, so the matrix is never copied.  ``k_eff + 1`` sweeps
are made.  The result is bit-identical to the argpartition + stable
argsort selection on ``sqrt(maximum(sq, 0))`` that the tests keep as the
reference (``tests/perf/seed_reference.py``):

* Distances are mapped from squared distances by one function,
  :func:`~repro.neighbors.distance.dists_from_sq`, whether for the whole
  matrix or for the picked entries, so a picked distance has the bits of
  the matrix entry.
* ``sqrt(maximum(·, 0))`` is monotone, so the ``k_eff + 1`` picks are the
  ``k_eff + 1`` smallest distances of their row.  Where their distances
  strictly increase, the ``k_eff`` nearest form the only set of ``k_eff``
  smallest entries, and their ascending order is the only one: any
  selection returns them, in this order.
* A row whose picked distances do not strictly increase (ties, or NaN or
  infinite entries, which compare false or equal) goes through
  argpartition + stable argsort on its own row, as before; argpartition
  works row by row, so a row's answer does not depend on which other rows
  go with it.  Sweeping stops early once every row has tied.

Small matrices and large ``k`` go straight to argpartition: per sweep,
``argmin`` over a row costs a fraction of a nanosecond per entry but each
sweep pays a fixed overhead of a few NumPy calls, while argpartition costs
~10 ns per entry.  Measured on a 2-core Xeon host (NumPy 2.4, tie-free
uniform matrices, one thread), the sweeps took 0.54–1.00 of
argpartition's time at 16384 entries and ``k_eff = 6`` (rows of 64 to
1024 entries), 0.82–1.18 at 8192 entries, and 0.70–1.29 at 16384 entries
and ``k_eff = 8``; on the ``bc-knn-ip`` benchmark's KNN-predict queries
(~350 × 350, ``k = 5``) 0.33.  Hence the gate: at least
:data:`SWEEP_MIN_CELLS` entries and ``k_eff <= SWEEP_MAX_K``.  A matrix
whose rows all tie costs two sweeps more than argpartition alone.
"""

from __future__ import annotations

import numpy as np

from repro.data.builder import append_rows_2d
from repro.neighbors.distance import MixedMetric, dists_from_sq, sq_euclidean


class BruteKNN:
    """Exact KNN by full pairwise distance computation.

    Parameters
    ----------
    metric:
        ``"euclidean"`` or a :class:`~repro.neighbors.distance.MixedMetric`.
    """

    def __init__(self, metric: str | MixedMetric = "euclidean") -> None:
        self.metric = metric
        self._X: np.ndarray | None = None
        self._buf: np.ndarray | None = None  # growable storage; _X = _buf[:_n]
        self._n = 0

    def fit(self, X: np.ndarray) -> "BruteKNN":
        """Store the reference matrix queries are answered against.

        Parameters
        ----------
        X : ndarray of shape (n_samples, n_features)
            Encoded reference rows (see
            :class:`~repro.neighbors.distance.TableNeighborSpace`).

        Returns
        -------
        BruteKNN
            ``self``, for chaining.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if isinstance(self.metric, MixedMetric) and X.shape[1] != self.metric.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, but the metric covers "
                f"{self.metric.n_features}"
            )
        self._buf = X
        self._n = X.shape[0]
        self._X = X
        return self

    def append(self, X_new: np.ndarray) -> "BruteKNN":
        """Extend the fitted matrix with new rows in O(batch) amortized.

        The reference matrix lives in a capacity-doubling buffer; queries
        after an append are answered against exactly the rows a fresh
        ``fit`` on the concatenated matrix would hold, so results are
        bit-identical to refitting from scratch.

        Parameters
        ----------
        X_new : ndarray of shape (n_new, n_features)
            Rows to add, same feature layout as the fitted matrix.

        Returns
        -------
        BruteKNN
            ``self``, for chaining.
        """
        if self._buf is None:
            return self.fit(X_new)
        X_new = np.asarray(X_new, dtype=np.float64)
        if X_new.ndim != 2 or X_new.shape[1] != self._buf.shape[1]:
            raise ValueError(
                f"X_new must have shape (n, {self._buf.shape[1]}), "
                f"got {X_new.shape}"
            )
        if X_new.shape[0] == 0:
            return self
        self._buf = append_rows_2d(self._buf, self._n, X_new)
        self._n += X_new.shape[0]
        self._X = self._buf[: self._n]
        return self

    def checkpoint(self) -> int:
        """Opaque token capturing the current fitted-row count.

        Pair with :meth:`rollback` to discard rows appended during a
        rejected edit-loop candidate in O(1).
        """
        if self._buf is None:
            raise RuntimeError("BruteKNN is not fitted")
        return self._n

    def rollback(self, token: int) -> None:
        """Forget every row appended since ``token`` was captured.

        O(1): the buffer is re-sliced, not copied.
        """
        if self._buf is None:
            raise RuntimeError("BruteKNN is not fitted")
        if not 0 <= token <= self._n:
            raise ValueError(f"invalid checkpoint token {token}")
        self._n = token
        self._X = self._buf[: self._n]

    @property
    def n_samples(self) -> int:
        """Number of fitted reference rows."""
        if self._X is None:
            raise RuntimeError("BruteKNN is not fitted")
        return self._X.shape[0]

    def kneighbors(
        self, Q: np.ndarray, k: int, *, exclude_self: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return (distances, indices) of the ``k`` nearest fitted rows.

        Parameters
        ----------
        Q:
            Query matrix.
        k:
            Number of neighbours, clipped to the number of available rows.
        exclude_self:
            Drop a zero-distance exact match per query (for leave-one-out
            queries against the fitted matrix itself).
        """
        if self._X is None:
            raise RuntimeError("BruteKNN is not fitted")
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2:
            raise ValueError(f"Q must be 2-D, got shape {Q.shape}")
        if Q.shape[1] != self._X.shape[1]:
            raise ValueError(
                f"Q has {Q.shape[1]} features, but the index was fitted on "
                f"{self._X.shape[1]}"
            )
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if isinstance(self.metric, MixedMetric):
            SQ = self.metric.pairwise_sq(Q, self._X)
        else:
            SQ = sq_euclidean(Q, self._X)
        return _topk_from_sq(SQ, k, exclude_self=exclude_self)


# Distances below this are treated as "the query itself" for exclude_self.
# Pairwise distances via the (a^2 + b^2 - 2ab) expansion carry ~1e-8 of
# floating error, so an exact zero test would fail to drop self matches.
SELF_DISTANCE_TOL = 1e-6


# Measured crossover of the min sweeps against argpartition (module
# docstring): smaller matrices or more neighbours go to argpartition.
SWEEP_MIN_CELLS = 16384
SWEEP_MAX_K = 6


def _topk_from_sq(
    SQ: np.ndarray, k: int, *, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_topk_from_dists` of ``dists_from_sq(SQ)``, by min sweeps.

    ``SQ`` is consumed: entries are masked and restored in place, and
    rows that go to argpartition are turned into distances in place.
    """
    n_q, n_x = SQ.shape
    k_eff = min(k + 1 if exclude_self else k, n_x)
    if k_eff >= n_x or k_eff > SWEEP_MAX_K or SQ.size < SWEEP_MIN_CELLS:
        return _topk_from_dists(dists_from_sq(SQ), k, exclude_self=exclude_self)
    flat = SQ.reshape(-1)  # a view: SQ is a fresh C-ordered matrix
    base = np.arange(n_q, dtype=np.intp) * n_x
    picks: list[np.ndarray] = []  # flat positions, one array per sweep
    vals: list[np.ndarray] = []
    dists: list[np.ndarray] = []
    unique = np.ones(n_q, dtype=bool)
    for j in range(k_eff + 1):
        pick = SQ.argmin(axis=1)
        pick += base
        val = flat[pick]
        flat[pick] = np.inf
        picks.append(pick)
        vals.append(val)
        dists.append(dists_from_sq(val.copy()))
        if j:
            unique &= dists[j] > dists[j - 1]
            if not unique.any():
                break
    # Reverse order: a late sweep can pick an entry an earlier sweep
    # masked (a row out of finite entries); the earlier value wins.
    for pick, val in zip(reversed(picks), reversed(vals)):
        flat[pick] = val
    if not unique.any():  # stopped early: every row tied
        return _topk_from_dists(dists_from_sq(SQ), k, exclude_self=exclude_self)
    dist = np.stack(dists[:k_eff], axis=1)
    idx = np.stack(picks[:k_eff], axis=1)
    idx -= base[:, None]
    tied = np.flatnonzero(~unique)
    if tied.size:
        dist[tied], idx[tied] = _sorted_topk(dists_from_sq(SQ[tied]), k_eff)
    return _drop_self(dist, idx, k, exclude_self=exclude_self)


def _sorted_topk(D: np.ndarray, k_eff: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k_eff`` smallest entries per row, argpartition + stable sort."""
    part = np.argpartition(D, k_eff - 1, axis=1)[:, :k_eff]
    part_d = np.take_along_axis(D, part, axis=1)
    order = np.argsort(part_d, axis=1, kind="stable")
    return (
        np.take_along_axis(part_d, order, axis=1),
        np.take_along_axis(part, order, axis=1),
    )


def _topk_from_dists(
    D: np.ndarray, k: int, *, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Select the ``k`` smallest entries per row of a distance matrix.

    Parameters
    ----------
    D : ndarray of shape (n_queries, n_fitted)
        Dense distance matrix.
    k : int
        Number of neighbours requested per row.
    exclude_self : bool
        Drop one zero-distance exact match per row (the query itself for
        leave-one-out queries against the fitted matrix).

    Returns
    -------
    distances : ndarray of shape (n_queries, k_out)
        Sorted ascending per row.
    indices : ndarray of shape (n_queries, k_out)
        Column indices into ``D`` matching ``distances``.
    """
    n_q, n_x = D.shape
    budget = k + 1 if exclude_self else k
    k_eff = min(budget, n_x)
    if k_eff == 0:
        return np.zeros((n_q, 0)), np.zeros((n_q, 0), dtype=np.intp)
    dist, idx = _sorted_topk(D, k_eff)
    return _drop_self(dist, idx, k, exclude_self=exclude_self)


def _drop_self(
    dist: np.ndarray, idx: np.ndarray, k: int, *, exclude_self: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Cut sorted ``(n_q, k_eff)`` neighbours to ``k``, minus self matches."""
    n_q, k_eff = dist.shape
    if not exclude_self:
        return dist[:, :k], idx[:, :k]
    out_k = min(k, max(k_eff - 1, 0))
    if out_k == 0:
        return np.zeros((n_q, 0)), np.zeros((n_q, 0), dtype=np.intp)
    # Rows whose nearest hit is the query itself start one column later;
    # rows without a self match keep their first out_k columns.  A single
    # gather replaces the per-row Python loop.
    offset = (dist[:, 0] < SELF_DISTANCE_TOL).astype(np.intp)
    cols = offset[:, None] + np.arange(out_k, dtype=np.intp)[None, :]
    return (
        np.take_along_axis(dist, cols, axis=1),
        np.take_along_axis(idx, cols, axis=1),
    )
