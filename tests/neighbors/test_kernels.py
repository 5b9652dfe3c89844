"""Kernel-layer tests: coded layouts, blocked top-k, and backend registry.

The float32 coded path is *equivalent* to the exact float64 path under the
documented contract (module docstring of :mod:`repro.neighbors.kernels`),
not bitwise: every assertion here is therefore either distance-based with a
float32-sized margin, or checks the parts that are exact by construction
(categorical-only arithmetic, the ``(distance, index)`` ordering).
"""

import numpy as np
import pytest

from repro.core.config import FroteConfig
from repro.engine.registry import (
    DISTANCE_BACKENDS,
    UnknownEntryError,
    register_distance_backend,
)
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.neighbors.distance import MixedMetric
from repro.neighbors.kernels import (
    NUMPY_BACKEND,
    CodedLayout,
    NumpyDistanceBackend,
    kneighbors_blocked,
    resolve_distance_backend,
)
from repro.sampling import SMOTE
from repro.serve.cli import synthetic_mixed_table

#: Absolute slack on distances between the float32 kernel path and the
#: exact float64 path, and the margin below which two base rows are
#: considered tied (either may legitimately be returned).
MARGIN = 1e-3


def random_encoded(rng, n, d_num, d_cat, cardinality=4, duplicates=0):
    """A random encoded matrix in the metric's domain + its cat mask.

    Numerics are range-scaled (uniform [0, 1], like
    ``TableNeighborSpace.encode`` output); categoricals are integer codes.
    ``duplicates`` rows are exact copies of earlier rows, manufacturing
    zero-distance ties.
    """
    num = rng.uniform(0.0, 1.0, size=(n, d_num))
    cat = rng.integers(0, cardinality, size=(n, d_cat)).astype(np.float64)
    E = np.hstack([num, cat]) if d_num + d_cat else np.zeros((n, 0))
    for _ in range(min(duplicates, n - 1)):
        src, dst = rng.integers(0, n, size=2)
        E[dst] = E[src]
    cat_mask = np.zeros(d_num + d_cat, dtype=bool)
    cat_mask[d_num:] = True
    return E, cat_mask


def exact_topk(E_q, E_b, cat_mask, k):
    """Float64 reference: per-row (distance, index)-sorted k best."""
    D = MixedMetric(cat_mask).pairwise(E_q, E_b)
    k = min(k, D.shape[1])
    idx = np.empty((D.shape[0], k), dtype=np.intp)
    dist = np.empty((D.shape[0], k), dtype=np.float64)
    for r, row in enumerate(D):
        order = np.lexsort((np.arange(row.size), row))[:k]
        idx[r] = order
        dist[r] = row[order]
    return dist, idx, D


def assert_equivalent(dist, idx, E_q, E_b, cat_mask, k):
    """Tie-robust parity: each selected neighbour is distance-equivalent
    to the exact one at the same rank, and reported distances are within
    the float32 envelope of the exact distances to the selected rows."""
    exact_d, _, D = exact_topk(E_q, E_b, cat_mask, k)
    assert dist.shape == exact_d.shape
    assert idx.shape == exact_d.shape
    # Reported distance ≈ exact distance of the row it claims.
    chosen_exact = np.take_along_axis(D, idx, axis=1)
    np.testing.assert_allclose(dist, chosen_exact, atol=MARGIN, rtol=1e-4)
    # Rank-by-rank: the chosen row is within a tie margin of the exact
    # k-best at that rank (strictly better is impossible; equal-up-to-ties
    # is the contract).
    assert np.all(chosen_exact <= exact_d + MARGIN)


def coded(E, cat_mask):
    return CodedLayout.from_encoded(E, cat_mask)


class TestCodedLayout:
    def test_from_encoded_splits_and_narrows(self):
        rng = np.random.default_rng(0)
        E, cat_mask = random_encoded(rng, 10, 3, 2)
        layout = coded(E, cat_mask)
        assert layout.n_rows == 10
        assert layout.num.dtype == np.float32 and layout.num.flags["C_CONTIGUOUS"]
        assert layout.cat.dtype == np.int32 and layout.cat.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(layout.num, E[:, :3].astype(np.float32))
        np.testing.assert_array_equal(layout.cat, E[:, 3:].astype(np.int32))
        np.testing.assert_array_equal(
            layout.num_sq, np.einsum("ij,ij->i", layout.num, layout.num)
        )

    def test_slice_is_zero_copy_and_take_gathers(self):
        rng = np.random.default_rng(1)
        E, cat_mask = random_encoded(rng, 12, 2, 1)
        layout = coded(E, cat_mask)
        view = layout.slice(3, 7)
        assert view.n_rows == 4
        assert view.num.base is layout.num
        sub = layout.take(np.array([5, 0, 5]))
        assert sub.n_rows == 3
        np.testing.assert_array_equal(sub.num[0], layout.num[5])
        np.testing.assert_array_equal(sub.num[1], layout.num[0])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            CodedLayout.from_encoded(np.zeros(3), np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="entries"):
            CodedLayout.from_encoded(np.zeros((2, 3)), np.zeros(2, dtype=bool))


class TestBlockedTopK:
    @pytest.mark.parametrize("n_b", [63, 64, 65, 127, 128, 129])
    def test_block_boundary_sizes(self, n_b):
        """n % base_block ∈ {0, 1, block-1} all agree with the reference."""
        rng = np.random.default_rng(n_b)
        E, cat_mask = random_encoded(rng, n_b, 3, 2)
        layout = coded(E, cat_mask)
        q = layout.slice(0, min(40, n_b))
        dist, idx = kneighbors_blocked(q, layout, 5, query_block=16, base_block=64)
        assert_equivalent(dist, idx, E[: q.n_rows], E, cat_mask, 5)

    def test_randomized_parity(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n_b = int(rng.integers(2, 400))
            n_q = int(rng.integers(1, 60))
            d_num = int(rng.integers(0, 5))
            d_cat = int(rng.integers(0 if d_num else 1, 4))
            card = int(rng.integers(1, 6))
            k = int(rng.integers(1, 8))
            E_b, cat_mask = random_encoded(
                rng, n_b, d_num, d_cat, cardinality=card, duplicates=n_b // 4
            )
            E_q, _ = random_encoded(rng, n_q, d_num, d_cat, cardinality=card)
            dist, idx = kneighbors_blocked(
                coded(E_q, cat_mask), coded(E_b, cat_mask), k,
                query_block=int(rng.integers(1, 64)),
                base_block=int(rng.integers(1, 128)),
            )
            assert_equivalent(dist, idx, E_q, E_b, cat_mask, k)

    def test_categorical_only_distances_blocking_invariant_bitwise(self):
        """Integer-overlap distances carry no float accumulation: the
        selected distance vector must be identical bits under any
        blocking.  Indices may differ only inside exact tie groups (the
        documented implementation-defined part of the contract), so each
        reported index must still realize its reported distance exactly."""
        rng = np.random.default_rng(7)
        E, cat_mask = random_encoded(rng, 200, 0, 4, cardinality=3)
        D = MixedMetric(cat_mask).pairwise(E[:50], E)
        layout = coded(E, cat_mask)
        q = layout.slice(0, 50)
        ref_d, _ = kneighbors_blocked(q, layout, 6)
        for qb, bb in [(1, 1), (7, 13), (50, 200), (64, 1024)]:
            d, i = kneighbors_blocked(q, layout, 6, query_block=qb, base_block=bb)
            np.testing.assert_array_equal(d, ref_d)
            np.testing.assert_array_equal(np.take_along_axis(D, i, axis=1), d)

    def test_mixed_blocking_invariance_within_margin(self):
        rng = np.random.default_rng(8)
        E, cat_mask = random_encoded(rng, 300, 4, 2, duplicates=40)
        layout = coded(E, cat_mask)
        q = layout.slice(0, 80)
        for qb, bb in [(11, 17), (80, 300), (256, 1024)]:
            d, i = kneighbors_blocked(q, layout, 5, query_block=qb, base_block=bb)
            assert_equivalent(d, i, E[:80], E, cat_mask, 5)

    def test_duplicate_rows_sorted_by_distance_then_index(self):
        rng = np.random.default_rng(9)
        E, cat_mask = random_encoded(rng, 120, 2, 2, cardinality=2, duplicates=60)
        layout = coded(E, cat_mask)
        dist, idx = kneighbors_blocked(layout, layout, 8, base_block=32)
        assert np.all(np.diff(dist, axis=1) >= 0)
        ties = np.diff(dist, axis=1) == 0
        idx_increasing = np.diff(idx, axis=1) > 0
        assert np.all(idx_increasing[ties])

    def test_exclude_self_drops_query_row(self):
        rng = np.random.default_rng(10)
        # Well-separated distinct rows: self-exclusion must drop exactly
        # the query row and match the exact path's neighbour sets.
        E, cat_mask = random_encoded(rng, 150, 4, 1, cardinality=5)
        layout = coded(E, cat_mask)
        dist, idx = kneighbors_blocked(
            layout, layout, 4, exclude_self=True, base_block=64
        )
        assert idx.shape == (150, 4)
        rows = np.arange(150)[:, None]
        assert not np.any(idx == rows)
        exact = BruteKNN(MixedMetric(cat_mask)).fit(E)
        e_dist, e_idx = exact.kneighbors(E, 4, exclude_self=True)
        np.testing.assert_allclose(dist, e_dist, atol=MARGIN, rtol=1e-4)

    def test_small_base_shapes_match_brute(self):
        rng = np.random.default_rng(11)
        E, cat_mask = random_encoded(rng, 3, 2, 1)
        layout = coded(E, cat_mask)
        brute = BruteKNN(MixedMetric(cat_mask)).fit(E)
        for exclude in (False, True):
            d_b, i_b = brute.kneighbors(E, 8, exclude_self=exclude)
            d_k, i_k = kneighbors_blocked(layout, layout, 8, exclude_self=exclude)
            assert d_k.shape == d_b.shape
            assert i_k.shape == i_b.shape

    def test_k_validation_and_empty_base(self):
        rng = np.random.default_rng(12)
        E, cat_mask = random_encoded(rng, 4, 1, 1)
        layout = coded(E, cat_mask)
        with pytest.raises(ValueError, match="k must be positive"):
            kneighbors_blocked(layout, layout, 0)
        empty = coded(np.zeros((0, 2)), cat_mask)
        d, i = kneighbors_blocked(layout, empty, 3)
        assert d.shape == (4, 0) and i.shape == (4, 0)


class TestBackendsAndRegistry:
    def test_resolve(self):
        assert resolve_distance_backend(None) is NUMPY_BACKEND
        assert resolve_distance_backend("numpy") is NUMPY_BACKEND
        mine = NumpyDistanceBackend()
        assert resolve_distance_backend(mine) is mine
        with pytest.raises(UnknownEntryError, match="numpy"):
            resolve_distance_backend("nump")

    def test_registry_names_and_validation(self):
        assert DISTANCE_BACKENDS.names() == ("numpy",)
        with pytest.raises(UnknownEntryError):
            DISTANCE_BACKENDS.validate("not-a-backend")

    def test_register_custom_backend(self):
        class HalfBackend(NumpyDistanceBackend):
            name = "half"

        instance = HalfBackend()
        register_distance_backend("half", instance)
        try:
            assert resolve_distance_backend("half") is instance
            assert FroteConfig(distance_backend="half").distance_backend == "half"
        finally:
            DISTANCE_BACKENDS.unregister("half")

    def test_config_validates_backend(self):
        assert FroteConfig(distance_backend="numpy").distance_backend == "numpy"
        assert FroteConfig().distance_backend is None
        with pytest.raises(UnknownEntryError, match="distance backend"):
            FroteConfig(distance_backend="nonsense")


class TestIntegration:
    def test_brute_backend_route_matches_default(self):
        table = synthetic_mixed_table(300, seed=5)
        space = TableNeighborSpace().fit(table)
        E = space.encode(table)
        cat_mask = space.metric_.cat_mask
        default = BruteKNN(space.metric_).fit(E)
        routed = BruteKNN(space.metric_, backend="numpy").fit(E)
        d0, i0 = default.kneighbors(E[:100], 5, exclude_self=True)
        d1, i1 = routed.kneighbors(E[:100], 5, exclude_self=True)
        assert d1.shape == d0.shape
        np.testing.assert_allclose(d1, d0, atol=MARGIN, rtol=1e-4)
        assert not np.any(i1 == np.arange(100)[:, None])
        # Without self-exclusion the generic tie-robust reference applies.
        d2, i2 = routed.kneighbors(E[:100], 5)
        assert_equivalent(d2, i2, E[:100], E, cat_mask, 5)

    def test_brute_coded_cache_invalidation_on_append_and_rollback(self):
        table = synthetic_mixed_table(120, seed=6)
        extra = synthetic_mixed_table(120, seed=66)
        space = TableNeighborSpace().fit(table)
        E, E2 = space.encode(table), space.encode(extra)
        knn = BruteKNN(space.metric_, backend="numpy").fit(E)
        knn.kneighbors(E[:10], 3)  # warm the coded cache
        token = knn.checkpoint()
        knn.append(E2)
        d_appended, i_appended = knn.kneighbors(E[:10], 3)
        fresh = BruteKNN(space.metric_, backend="numpy").fit(np.vstack([E, E2]))
        d_fresh, i_fresh = fresh.kneighbors(E[:10], 3)
        np.testing.assert_array_equal(i_appended, i_fresh)
        np.testing.assert_array_equal(d_appended, d_fresh)
        # Rollback-then-append with *different* rows must not reuse the
        # stale layout even though the row count matches.
        knn.rollback(token)
        knn.append(space.encode(synthetic_mixed_table(120, seed=67)))
        d_after, i_after = knn.kneighbors(E[:10], 3)
        assert (i_after != i_appended).any() or not np.allclose(d_after, d_appended)

    def test_encode_coded_cache_token(self):
        table = synthetic_mixed_table(80, seed=7)
        space = TableNeighborSpace().fit(table)
        first = space.encode_coded(table, cache_token="v1")
        again = space.encode_coded(table, cache_token="v1")
        assert again is first
        rebuilt = space.encode_coded(table, cache_token="v2")
        assert rebuilt is not first
        with pytest.raises(ValueError, match="table or an encoded"):
            space.encode_coded()

    def test_encode_coded_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            TableNeighborSpace().encode_coded(encoded=np.zeros((2, 2)))

    def test_smote_with_backend_generates_valid_rows(self):
        table = synthetic_mixed_table(200, seed=8)
        out = SMOTE(3, distance_backend="numpy").generate(
            table, 50, rng=np.random.default_rng(0)
        )
        assert out.n_rows == 50
        assert out.schema == table.schema
        for name in table.schema.categorical_names:
            cats = table.schema[name].categories
            assert out.column(name).min() >= 0
            assert out.column(name).max() < len(cats)
