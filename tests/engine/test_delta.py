"""Tests for the dataset delta journal and EditState's delta-aware caches."""

import numpy as np
import pytest

from repro.core import FroteConfig
from repro.data import Dataset, DatasetBuilder, Table, make_schema
from repro.engine import DatasetDelta, DeltaJournal, EditState
from repro.models import KNeighborsClassifier, make_algorithm
from repro.rules import FeedbackRule, Predicate, clause
from repro.rules.ruleset import FeedbackRuleSet

SCHEMA = make_schema(numeric=["age", "income"], categorical={"kind": ("a", "b")})


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    table = Table(
        SCHEMA,
        {
            "age": rng.uniform(18, 80, size=n),
            "income": rng.uniform(10, 200, size=n),
            "kind": rng.integers(0, 2, size=n),
        },
    )
    return Dataset(table, rng.integers(0, 2, size=n), ("deny", "approve"))


def make_frs():
    return FeedbackRuleSet(
        (
            FeedbackRule.deterministic(clause(Predicate("age", "<", 35.0)), 1, 2),
            FeedbackRule.deterministic(clause(Predicate("income", ">", 150.0)), 0, 2),
        )
    )


class TestDeltaJournal:
    def test_append_chain_merges(self):
        j = DeltaJournal()
        j.record_append(1, 2, 100, 110, "batch")
        j.record_append(2, 3, 110, 125, "batch")
        assert j.appended_between(1, 3) == (100, 125)
        assert j.appended_between(2, 3) == (110, 125)
        assert j.appended_between(1, 2) == (100, 110)

    def test_equal_versions(self):
        assert DeltaJournal().appended_between(7, 7) == (0, 0)

    def test_rebuild_breaks_the_chain(self):
        j = DeltaJournal()
        j.record_append(1, 2, 100, 110)
        j.record_rebuild(2, 3, "modification")
        j.record_append(3, 4, 50, 60)
        assert j.appended_between(1, 4) is None
        assert j.appended_between(2, 4) is None
        assert j.appended_between(3, 4) == (50, 60)

    def test_unknown_version_answers_none(self):
        j = DeltaJournal()
        j.record_append(1, 2, 0, 5)
        assert j.appended_between(0, 9) is None

    def test_eviction_bounds_memory(self):
        j = DeltaJournal(max_entries=4)
        for v in range(1, 20):
            j.record_append(v, v + 1, v * 10, v * 10 + 10)
        assert len(j) == 4
        # Evicted prefix: unknown.  Recent suffix: still answered.
        assert j.appended_between(1, 20) is None
        assert j.appended_between(16, 20) == (160, 200)

    def test_delta_properties(self):
        d = DatasetDelta(version=2, parent=1, start=10, stop=14, provenance="x")
        assert d.is_append and d.n_appended == 4
        with pytest.raises(ValueError):
            DeltaJournal().record_append(1, 2, 5, 3)


def make_state(n=120, seed=0, **config_kwargs):
    dataset = make_dataset(n, seed)
    algorithm = make_algorithm(lambda: KNeighborsClassifier(k=3), standardize=False)
    state = EditState(
        input_dataset=dataset,
        frs=make_frs(),
        algorithm=algorithm,
        config=FroteConfig(tau=5, random_state=0, **config_kwargs),
        rng=np.random.default_rng(0),
    )
    # Mirrors ModificationStage: the rebuild delta is recorded first
    # (it drops any prior builder), then the builder takes ownership.
    state.record_rebuild("setup")
    state.active_builder = DatasetBuilder.from_dataset(dataset)
    state.active = state.active_builder.snapshot()
    state.model = algorithm(state.active)
    return state


class TestEditStateDeltas:
    def test_record_append_keeps_assignment_extendable(self):
        state = make_state()
        before = state.active_assignment()
        extra = make_dataset(17, seed=1)
        state.active = state.active_builder.append(extra.X, extra.y)
        state.record_append(extra.n, "accepted-batch")
        merged = state.active_assignment()
        full = state.frs.assign(state.active.X)
        np.testing.assert_array_equal(merged, full)
        np.testing.assert_array_equal(merged[: before.shape[0]], before)

    def test_multiple_appends_merge(self):
        state = make_state()
        state.active_assignment()
        for i in range(3):
            extra = make_dataset(5 + i, seed=10 + i)
            state.active = state.active_builder.append(extra.X, extra.y)
            state.record_append(extra.n, "accepted-batch")
        np.testing.assert_array_equal(
            state.active_assignment(), state.frs.assign(state.active.X)
        )

    def test_rebuild_clears_caches(self):
        state = make_state()
        state.active_assignment()
        state.active_predictions()
        state.record_rebuild("modification")
        assert state.assign_cache is None
        assert state.predictions_cache is None

    def test_rebuild_drops_the_builder(self):
        """A rebuilt ``active`` no longer matches the builder's rows, so
        keeping the builder would let staging resurrect stale data (the
        acceptance stage re-homes a fresh builder on the next accept)."""
        state = make_state()
        assert state.active_builder is not None
        state.active = make_dataset(state.active.n, seed=99)  # same length!
        state.record_rebuild("custom-stage-mutation")
        assert state.active_builder is None

    def test_predictions_cache_requires_same_model(self):
        state = make_state()
        preds = state.active_predictions()
        assert state.predictions_cache[1] is state.model
        # Same version, different model object: full recompute, not a hit.
        state.model = state.algorithm(state.active)
        again = state.active_predictions()
        np.testing.assert_array_equal(preds, again)
        assert state.predictions_cache[1] is state.model

    def test_incremental_prediction_extension_is_exact(self):
        state = make_state(incremental=True)
        state.active_predictions()
        extra = make_dataset(11, seed=3)
        state.active = state.active_builder.append(extra.X, extra.y)
        state.model.partial_update(extra)
        state.record_append(extra.n, "accepted-batch")
        # Seed with the updated model's predictions over the old rows,
        # exactly like the acceptance stage does...
        old_n = state.active.n - extra.n
        state.predictions_cache = (
            state.journal.get(state.dataset_version).parent,
            state.model,
            state.model.predict(state.active.X.row_slice(0, old_n)),
        )
        extended = state.active_predictions()
        np.testing.assert_array_equal(extended, state.model.predict(state.active.X))

    def test_default_mode_does_not_extend_predictions(self):
        state = make_state()  # incremental off
        state.active_predictions()
        extra = make_dataset(7, seed=4)
        state.active = state.active_builder.append(extra.X, extra.y)
        state.record_append(extra.n, "accepted-batch")
        preds = state.active_predictions()  # full recompute path
        assert preds.shape[0] == state.active.n
        np.testing.assert_array_equal(preds, state.model.predict(state.active.X))
