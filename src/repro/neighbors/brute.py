"""Brute-force k-nearest-neighbour search."""

from __future__ import annotations

import numpy as np

from repro.data.builder import append_rows_2d
from repro.neighbors.distance import MixedMetric, pairwise_euclidean
from repro.neighbors.kernels import CodedLayout, kneighbors_blocked


class BruteKNN:
    """Exact KNN by full pairwise distance computation.

    Parameters
    ----------
    metric:
        ``"euclidean"`` or a :class:`~repro.neighbors.distance.MixedMetric`.
    backend:
        ``None`` (default) keeps the exact float64 path, bit-identical to
        the seed.  A ``DISTANCE_BACKENDS`` name (``"numpy"``)
        or backend instance opts into the blocked float32 kernel layer
        (:mod:`repro.neighbors.kernels`) — see that module's precision and
        tie contract.
    """

    def __init__(
        self, metric: str | MixedMetric = "euclidean", *, backend=None
    ) -> None:
        self.metric = metric
        self.backend = backend
        self._X: np.ndarray | None = None
        self._buf: np.ndarray | None = None  # growable storage; _X = _buf[:_n]
        self._n = 0
        self._coded: tuple[int, CodedLayout] | None = None

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
        self._buf = X
        self._n = X.shape[0]
        self._X = X
        self._coded = None
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
        self._coded = None
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
        self._coded = None

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
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self.backend is not None:
            return kneighbors_blocked(
                CodedLayout.from_encoded(Q, self._cat_mask()),
                self._coded_base(),
                k,
                exclude_self=exclude_self,
                backend=self.backend,
            )
        if isinstance(self.metric, MixedMetric):
            D = self.metric.pairwise(Q, self._X)
        else:
            D = pairwise_euclidean(Q, self._X)
        return _topk_from_dists(D, k, exclude_self=exclude_self)

    def _cat_mask(self) -> np.ndarray:
        if isinstance(self.metric, MixedMetric):
            return self.metric.cat_mask
        return np.zeros(self._X.shape[1], dtype=bool)

    def _coded_base(self) -> CodedLayout:
        """Coded layout of the fitted rows, rebuilt after any mutation.

        ``fit``/``append``/``rollback`` drop the cache, so the count check
        here is belt-and-braces only.
        """
        if self._coded is not None and self._coded[0] == self._n:
            return self._coded[1]
        layout = CodedLayout.from_encoded(self._X, self._cat_mask())
        self._coded = (self._n, layout)
        return layout


# Distances below this are treated as "the query itself" for exclude_self.
# Pairwise distances via the (a^2 + b^2 - 2ab) expansion carry ~1e-8 of
# floating error, so an exact zero test would fail to drop self matches.
SELF_DISTANCE_TOL = 1e-6


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
    part = np.argpartition(D, k_eff - 1, axis=1)[:, :k_eff]
    part_d = np.take_along_axis(D, part, axis=1)
    order = np.argsort(part_d, axis=1, kind="stable")
    idx = np.take_along_axis(part, order, axis=1)
    dist = np.take_along_axis(part_d, order, axis=1)
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
