"""Pluggable distance/top-k kernels over pre-encoded ("coded") layouts.

The default neighbour path (:class:`~repro.neighbors.distance.MixedMetric`
over float64 encoded matrices) is exact and bit-pinned against the seed.
This module is the opt-in fast path: rows are packed once into a
:class:`CodedLayout` — a contiguous float32 numeric block plus int32
categorical codes — and :func:`kneighbors_blocked` streams query×base tiles
through a swappable squared-distance kernel, keeping a running k-best per
query so the full n×m distance matrix is never materialized.

Backends live in the ``DISTANCE_BACKENDS`` registry
(:mod:`repro.engine.registry`): the built-in ``"numpy"`` backend is a
float32 BLAS norm expansion, and plugins register through
:func:`repro.engine.register_distance_backend`.  Selection is
``FroteConfig(distance_backend=...)`` or the ``backend=`` argument on
:class:`~repro.neighbors.brute.BruteKNN` and the samplers.

Precision and tie contract (documented in ``docs/architecture.md``):

* Distances are accumulated in float32 and returned as float64; expect
  agreement with the exact path within ~1 ulp of float32 accumulation.
* Neighbour *sets* match the exact path on tie-free data.  When several
  rows are equidistant at the k-th slot, which of them survive a tile's
  ``argpartition`` boundary is implementation-defined (but deterministic
  for a given blocking); the returned neighbours are always sorted by
  ``(distance, index)``.
* ``exclude_self`` uses :data:`CODED_SELF_DISTANCE_TOL` (plus a
  norm-relative float32 cancellation allowance) instead of the exact
  path's 1e-6 — float32 norm expansion cannot certify a zero distance
  more tightly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CODED_SELF_DISTANCE_TOL",
    "CodedLayout",
    "NumpyDistanceBackend",
    "NUMPY_BACKEND",
    "kneighbors_blocked",
    "resolve_distance_backend",
]


#: Distances below this are treated as "the query itself" for
#: ``exclude_self`` on the coded (float32) path.  The exact path's 1e-6
#: (:data:`repro.neighbors.brute.SELF_DISTANCE_TOL`) is unreachable here:
#: the float32 norm expansion ``q²+b²-2qb`` of a self-match cancels with
#: error proportional to the row norm, so the tolerance is the max of this
#: floor and a norm-relative allowance (see :func:`kneighbors_blocked`).
CODED_SELF_DISTANCE_TOL = 1e-3

# Norm-relative squared-distance allowance for self-match detection:
# ~64 ulps of the float32 intermediates involved in the cancellation.
_SELF_SQDIST_RTOL = 64.0 * float(np.finfo(np.float32).eps)

#: Default tile shape: 256×1024 float32 distances ≈ 1 MiB — sized so a
#: tile plus its operand slices stay L2-resident on common cores.
DEFAULT_QUERY_BLOCK = 256
DEFAULT_BASE_BLOCK = 1024


@dataclass(frozen=True)
class CodedLayout:
    """Rows packed for the kernel layer: split, contiguous, narrow.

    Attributes
    ----------
    num:
        ``(n, d_num)`` float32, C-contiguous — range-scaled numeric
        features (the numeric block of the float64 encoding, cast once).
    cat:
        ``(n, d_cat)`` int32, C-contiguous — categorical codes.  Integer
        compares replace the exact path's float64 broadcast ``!=``.
    num_sq:
        ``(n,)`` float32 — per-row squared norms of ``num``, precomputed
        for the norm-expansion kernel.
    """

    num: np.ndarray
    cat: np.ndarray
    num_sq: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.num.shape[0]

    @classmethod
    def from_encoded(cls, E: np.ndarray, cat_mask: np.ndarray) -> "CodedLayout":
        """Pack a float64 encoded matrix (scaled numerics + cat codes).

        The float64 scaling happens first (in
        :meth:`~repro.neighbors.distance.TableNeighborSpace.encode`), then
        the cast — so a cached layout is bitwise-reproducible from the
        exact encoding regardless of how it was built.
        """
        E = np.asarray(E, dtype=np.float64)
        cat_mask = np.asarray(cat_mask, dtype=bool)
        if E.ndim != 2:
            raise ValueError(f"encoded matrix must be 2-D, got shape {E.shape}")
        if cat_mask.size != E.shape[1]:
            raise ValueError(
                f"cat_mask has {cat_mask.size} entries for {E.shape[1]} columns"
            )
        num = np.ascontiguousarray(E[:, ~cat_mask], dtype=np.float32)
        cat = np.ascontiguousarray(E[:, cat_mask], dtype=np.int32)
        num_sq = np.einsum("ij,ij->i", num, num)  # float32 accumulation
        return cls(num=num, cat=cat, num_sq=num_sq)

    def take(self, indices: np.ndarray) -> "CodedLayout":
        """Row-gathered sub-layout (for querying a subset against the base)."""
        indices = np.asarray(indices)
        return CodedLayout(
            num=np.ascontiguousarray(self.num[indices]),
            cat=np.ascontiguousarray(self.cat[indices]),
            num_sq=np.ascontiguousarray(self.num_sq[indices]),
        )

    def slice(self, start: int, stop: int) -> "CodedLayout":
        """Zero-copy row slice (tiles of a C-contiguous layout stay views)."""
        return CodedLayout(
            num=self.num[start:stop],
            cat=self.cat[start:stop],
            num_sq=self.num_sq[start:stop],
        )


class NumpyDistanceBackend:
    """Default tile kernel: float32 sgemm norm expansion + int32 compares.

    Computes *squared* HEOM distances for one query×base tile; the blocked
    driver defers the sqrt to the selected k rows.
    """

    name = "numpy"

    def sqdist_tile(
        self,
        qnum: np.ndarray,
        qsq: np.ndarray,
        qcat: np.ndarray,
        bnum: np.ndarray,
        bsq: np.ndarray,
        bcat: np.ndarray,
    ) -> np.ndarray:
        if qnum.shape[1]:
            sq = qsq[:, None] + bsq[None, :] - 2.0 * (qnum @ bnum.T)
            np.maximum(sq, 0.0, out=sq)
        else:
            sq = np.zeros((qnum.shape[0], bnum.shape[0]), dtype=np.float32)
        for j in range(qcat.shape[1]):
            sq += qcat[:, j][:, None] != bcat[:, j][None, :]
        return sq


# The registry entry is this instance, so every lookup returns one object.
NUMPY_BACKEND = NumpyDistanceBackend()


def resolve_distance_backend(backend):
    """Accept a backend instance or a ``DISTANCE_BACKENDS`` name."""
    if backend is None:
        return NUMPY_BACKEND
    if isinstance(backend, str):
        # Imported lazily: the registry module pulls the whole engine
        # package, which transitively imports this module.
        from repro.engine.registry import DISTANCE_BACKENDS

        return DISTANCE_BACKENDS.get(backend)
    return backend


def _sort_tile_by_dist_then_index(tile_d, tile_i):
    """Sort each row's candidates by ``(distance, index)`` via two stable passes."""
    order = np.argsort(tile_i, axis=1, kind="stable")
    tile_d = np.take_along_axis(tile_d, order, axis=1)
    tile_i = np.take_along_axis(tile_i, order, axis=1)
    order = np.argsort(tile_d, axis=1, kind="stable")
    return (
        np.take_along_axis(tile_d, order, axis=1),
        np.take_along_axis(tile_i, order, axis=1),
    )


def kneighbors_blocked(
    query: CodedLayout,
    base: CodedLayout,
    k: int,
    *,
    exclude_self: bool = False,
    backend=None,
    query_block: int = DEFAULT_QUERY_BLOCK,
    base_block: int = DEFAULT_BASE_BLOCK,
) -> tuple[np.ndarray, np.ndarray]:
    """Blocked k-nearest-neighbour search over coded layouts.

    Processes ``query_block × base_block`` tiles and keeps a per-query
    running k-best, so peak distance storage is one tile plus the k-best —
    never the full ``n_query × n_base`` matrix.

    Returns ``(distances, indices)`` shaped like
    :meth:`repro.neighbors.brute.BruteKNN.kneighbors`: float64 distances
    sorted ascending per row (ties broken by index) and ``intp`` indices
    into the base layout.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    be = resolve_distance_backend(backend)
    n_q, n_b = query.n_rows, base.n_rows
    budget = k + 1 if exclude_self else k
    k_eff = min(budget, n_b)
    if k_eff == 0:
        return np.zeros((n_q, 0)), np.zeros((n_q, 0), dtype=np.intp)

    out_k = min(k, max(k_eff - 1, 0)) if exclude_self else k_eff
    if exclude_self and out_k == 0:
        return np.zeros((n_q, 0)), np.zeros((n_q, 0), dtype=np.intp)
    dist_out = np.empty((n_q, out_k), dtype=np.float64)
    idx_out = np.empty((n_q, out_k), dtype=np.intp)

    for qs in range(0, n_q, query_block):
        qe = min(qs + query_block, n_q)
        q = query.slice(qs, qe)
        best_d = None  # (qe-qs, <=k_eff) squared distances, (d, i)-sorted
        best_i = None
        for bs in range(0, n_b, base_block):
            be_stop = min(bs + base_block, n_b)
            b = base.slice(bs, be_stop)
            sq = be.sqdist_tile(q.num, q.num_sq, q.cat, b.num, b.num_sq, b.cat)
            nb = be_stop - bs
            if nb > k_eff:
                part = np.argpartition(sq, k_eff - 1, axis=1)[:, :k_eff]
                tile_d = np.take_along_axis(sq, part, axis=1)
                tile_i = part.astype(np.intp) + bs
            else:
                tile_d = sq
                tile_i = np.broadcast_to(
                    np.arange(bs, be_stop, dtype=np.intp), sq.shape
                ).copy()
            tile_d, tile_i = _sort_tile_by_dist_then_index(tile_d, tile_i)
            if best_d is None:
                best_d, best_i = tile_d[:, :k_eff], tile_i[:, :k_eff]
                continue
            # Merge running best with this tile.  Both halves are
            # (distance, index)-sorted and every running index precedes
            # every tile index (tiles advance left to right), so a stable
            # sort on distance alone preserves the tie contract.
            cand_d = np.concatenate([best_d, tile_d], axis=1)
            cand_i = np.concatenate([best_i, tile_i], axis=1)
            order = np.argsort(cand_d, axis=1, kind="stable")[:, :k_eff]
            best_d = np.take_along_axis(cand_d, order, axis=1)
            best_i = np.take_along_axis(cand_i, order, axis=1)

        dist = np.sqrt(best_d.astype(np.float64, copy=False))
        if not exclude_self:
            dist_out[qs:qe] = dist[:, :out_k]
            idx_out[qs:qe] = best_i[:, :out_k]
            continue
        # Self-match detection on the *squared* distance, with a
        # norm-relative allowance for float32 cancellation error.
        tol_sq = np.maximum(
            CODED_SELF_DISTANCE_TOL**2,
            _SELF_SQDIST_RTOL * (1.0 + q.num_sq.astype(np.float64)),
        )
        offset = (best_d[:, 0].astype(np.float64) <= tol_sq).astype(np.intp)
        cols = offset[:, None] + np.arange(out_k, dtype=np.intp)[None, :]
        dist_out[qs:qe] = np.take_along_axis(dist, cols, axis=1)
        idx_out[qs:qe] = np.take_along_axis(best_i, cols, axis=1)

    return dist_out, idx_out
