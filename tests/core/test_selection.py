"""Tests for base-instance selection strategies."""

import numpy as np
import pytest

from repro.core import (
    IPSelector,
    RandomSelector,
    SelectionContext,
    make_selector,
    preselect_base_population,
)
from repro.core.preselect import BasePopulation
from repro.core.selection import _allocate_per_rule


class TestAllocate:
    def test_even_split(self):
        assert _allocate_per_rule(10, 2) == [5, 5]

    def test_remainder_to_first(self):
        assert _allocate_per_rule(10, 3) == [4, 3, 3]

    def test_zero_rules(self):
        assert _allocate_per_rule(10, 0) == []

    def test_total_preserved(self):
        for eta in range(1, 20):
            for m in range(1, 6):
                assert sum(_allocate_per_rule(eta, m)) == eta


def _ctx(dataset, predictions=None, seed=0, frs=None, cache_token=None):
    return SelectionContext(
        dataset,
        predictions,
        k=5,
        rng=np.random.default_rng(seed),
        frs=frs,
        cache_token=cache_token,
    )


class TestRandomSelector:
    def test_quota_honoured(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        sel = RandomSelector().select(bp, 10, _ctx(mixed_dataset))
        assert sum(s.size for s in sel) == 10

    def test_positions_within_pool(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        sel = RandomSelector().select(bp, 8, _ctx(mixed_dataset))
        for pop, positions in zip(bp.per_rule, sel):
            if positions.size:
                assert positions.max() < pop.size

    def test_replacement_when_quota_exceeds_pool(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        huge = bp.total_size * 3
        sel = RandomSelector().select(bp, huge, _ctx(mixed_dataset))
        assert sum(s.size for s in sel) == huge

    def test_reproducible(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        a = RandomSelector().select(bp, 6, _ctx(mixed_dataset, seed=3))
        b = RandomSelector().select(bp, 6, _ctx(mixed_dataset, seed=3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestIPSelector:
    def test_selects_within_pools(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        preds = mixed_dataset.y.copy()
        sel = IPSelector().select(bp, 12, _ctx(mixed_dataset, preds))
        for pop, positions in zip(bp.per_rule, sel):
            if positions.size:
                assert positions.max() < pop.size

    def test_lower_bound_met_per_rule(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        preds = mixed_dataset.y.copy()
        sel = IPSelector().select(bp, 20, _ctx(mixed_dataset, preds))
        for pop, positions in zip(bp.per_rule, sel):
            assert positions.size >= min(6, pop.size)

    def test_falls_back_to_labels_without_predictions(self, mixed_dataset, two_rule_frs):
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        sel = IPSelector().select(bp, 12, _ctx(mixed_dataset, None))
        assert any(s.size for s in sel)

    def test_same_revision_reuses_the_solution(self, mixed_dataset, two_rule_frs, monkeypatch):
        """A second select at the same dataset revision, population and
        budget solves nothing and returns the first solution; a caller
        that edits what it got does not edit what later callers get."""
        import repro.core.selection as selection

        solves = []
        solve = selection.solve_selection
        monkeypatch.setattr(selection, "solve_selection", lambda p: solves.append(p) or solve(p))
        bp = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        preds = mixed_dataset.y.copy()
        selector = IPSelector()
        first = selector.select(bp, 12, _ctx(mixed_dataset, preds, cache_token=4))
        expected = [positions.copy() for positions in first]
        assert expected[0].size
        for positions in first:
            positions[:] = -1
        second = selector.select(bp, 12, _ctx(mixed_dataset, preds, cache_token=4))
        assert len(solves) == 1
        for got, want in zip(second, expected):
            np.testing.assert_array_equal(got, want)
        second[0][:] = -1
        third = selector.select(bp, 12, _ctx(mixed_dataset, preds, cache_token=4))
        np.testing.assert_array_equal(third[0], expected[0])
        # Another revision, budget or population solves again.
        selector.select(bp, 12, _ctx(mixed_dataset, preds, cache_token=5))
        selector.select(bp, 10, _ctx(mixed_dataset, preds, cache_token=5))
        other = preselect_base_population(mixed_dataset, two_rule_frs, k=5)
        selector.select(other, 10, _ctx(mixed_dataset, preds, cache_token=5))
        assert len(solves) == 4

    def test_same_revision_other_union_is_classified_again(self, mixed_dataset, two_rule_frs):
        """A streamed rule can change the union without a new dataset
        revision; a union of the same size but other rows gets its own
        borderline weights, not the memoized ones."""
        from dataclasses import replace

        pop = preselect_base_population(mixed_dataset, two_rule_frs, k=5).per_rule[0]

        def over(rows):
            rows = np.asarray(rows, dtype=np.intp)
            return BasePopulation(
                (replace(pop, indices=rows, strong_mask=np.ones(rows.size, dtype=bool)),)
            )

        preds = mixed_dataset.y.copy()
        first, second = over(np.arange(0, 40)), over(np.arange(100, 140))
        selector = IPSelector()
        ctx = _ctx(mixed_dataset, preds, cache_token=7)
        selector.select(first, 12, ctx)
        got = selector._borderline_analysis(second.union_indices, ctx)
        fresh = IPSelector()._borderline_analysis(second.union_indices, ctx)
        assert got.weights.tobytes() == fresh.weights.tobytes()
        stale = IPSelector()._borderline_analysis(first.union_indices, ctx)
        assert stale.weights.tobytes() != fresh.weights.tobytes()
        for a, b in zip(
            selector.select(second, 12, ctx), IPSelector().select(second, 12, ctx)
        ):
            np.testing.assert_array_equal(a, b)


class TestMakeSelector:
    def test_random(self):
        assert isinstance(make_selector("random"), RandomSelector)

    def test_ip(self):
        assert isinstance(make_selector("ip"), IPSelector)

    def test_online(self):
        from repro.core import OnlineProxySelector

        assert isinstance(make_selector("online"), OnlineProxySelector)

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown selection"):
            make_selector("genetic")
