"""Tests for EditState's row caches: extended from their own length
over appended rows, dropped by ``record_rebuild()``."""

import numpy as np
import pytest

from repro.core import FroteConfig
from repro.data import Dataset, DatasetBuilder, Table, make_schema
from repro.data.evolution import SchemaDelta
from repro.engine import EditState, apply_schema_delta
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
    # Mirrors ModificationStage: the rebuild is recorded first (it drops
    # any prior builder), then the builder takes ownership.
    state.record_rebuild()
    state.active_builder = DatasetBuilder.from_dataset(dataset)
    state.active = state.active_builder.snapshot()
    state.model = algorithm(state.active)
    return state


def append_rows(state, n, seed):
    """Commit ``n`` fresh rows to the builder, like an accepted batch."""
    extra = make_dataset(n, seed=seed)
    state.active = state.active_builder.append(extra.X, extra.y)
    state.record_append()
    return extra


def count_predicted_rows(model):
    """Wrap ``model.predict`` to record the row count of every call."""
    calls = []
    predict = model.predict

    def counting(X):
        calls.append(X.n_rows)
        return predict(X)

    model.predict = counting
    return calls


class TestEditStateDeltas:
    def test_record_append_keeps_assignment_extendable(self):
        state = make_state()
        before = state.active_assignment()
        append_rows(state, 17, seed=1)
        merged = state.active_assignment()
        np.testing.assert_array_equal(merged, state.frs.assign(state.active.X))
        np.testing.assert_array_equal(merged[: before.shape[0]], before)

    def test_multiple_appends_merge(self):
        """Several appends between reads: one extension over all of
        them, equal to a full pass, for both row caches."""
        state = make_state(incremental=True)
        state.active_assignment()
        state.active_predictions()
        n0 = state.active.n
        for i in range(3):
            append_rows(state, 5 + i, seed=10 + i)
        calls = count_predicted_rows(state.model)
        np.testing.assert_array_equal(
            state.active_assignment(), state.frs.assign(state.active.X)
        )
        preds = state.active_predictions()
        assert calls == [state.active.n - n0]  # only the appended rows
        np.testing.assert_array_equal(preds, state.model.predict(state.active.X))

    def test_rebuild_clears_caches(self):
        state = make_state(incremental=True)
        state.active_assignment()
        state.active_predictions()
        # Same row count, different rows: a kept cache would look complete.
        state.active = make_dataset(state.active.n, seed=99)
        state.record_rebuild()
        assert state.assign_cache is None
        assert state.predictions_cache is None
        np.testing.assert_array_equal(
            state.active_assignment(), state.frs.assign(state.active.X)
        )
        np.testing.assert_array_equal(
            state.active_predictions(), state.model.predict(state.active.X)
        )

    def test_rebuild_drops_the_builder(self):
        """A rebuilt ``active`` no longer matches the builder's rows, so
        keeping the builder would let staging resurrect stale data (the
        acceptance stage re-homes a fresh builder on the next accept)."""
        state = make_state()
        assert state.active_builder is not None
        state.active = make_dataset(state.active.n, seed=99)  # same length!
        state.record_rebuild()
        assert state.active_builder is None

    def test_predictions_cache_requires_same_model(self):
        state = make_state()
        preds = state.active_predictions()
        assert state.predictions_cache[0] is state.model
        # Same rows, different model object: full recompute, not a hit.
        state.model = state.algorithm(state.active)
        again = state.active_predictions()
        np.testing.assert_array_equal(preds, again)
        assert state.predictions_cache[0] is state.model

    def test_incremental_prediction_extension_is_exact(self):
        state = make_state(incremental=True)
        old_n = state.active.n
        extra = make_dataset(11, seed=3)
        state.model.partial_update(extra)
        # Seed the updated model's predictions over the old rows, exactly
        # like the acceptance stage does, then append the batch.
        state.seed_predictions(
            state.model, state.model.predict(state.active.X.row_slice(0, old_n))
        )
        state.active = state.active_builder.append(extra.X, extra.y)
        state.record_append()
        calls = count_predicted_rows(state.model)
        extended = state.active_predictions()
        assert calls == [extra.n]
        np.testing.assert_array_equal(extended, state.model.predict(state.active.X))

    def test_default_mode_does_not_extend_predictions(self):
        state = make_state()  # incremental off
        state.active_predictions()
        append_rows(state, 7, seed=4)
        calls = count_predicted_rows(state.model)
        preds = state.active_predictions()  # full recompute path
        assert calls == [state.active.n]
        np.testing.assert_array_equal(preds, state.model.predict(state.active.X))

    @pytest.mark.parametrize(
        "delta",
        [
            SchemaDelta.add_column("tenure", fill=2.0),  # the model is refit
            SchemaDelta.rename_column("kind", "segment"),  # the model survives
        ],
        ids=["add-column", "rename"],
    )
    def test_migration_after_unextended_append(self, delta):
        """A schema migration right after an accepted batch: the row
        caches still cover only the pre-batch rows, so they are not
        reinstalled, and the migrated state reads what a full pass
        computes."""
        state = make_state(incremental=True)
        state.active_assignment()
        state.active_predictions()
        append_rows(state, 9, seed=5)
        apply_schema_delta(state, delta)
        np.testing.assert_array_equal(
            state.active_assignment(), state.frs.assign(state.active.X)
        )
        np.testing.assert_array_equal(
            state.active_predictions(), state.model.predict(state.active.X)
        )
        assert len(state.assign_cache[1]) == state.active.n

    def test_migration_keeps_covering_caches(self):
        """Caches that cover every row survive a rename as the same
        arrays, under the new dataset version."""
        state = make_state()
        assign = state.active_assignment()
        preds = state.active_predictions()
        version = state.dataset_version
        record = apply_schema_delta(state, SchemaDelta.rename_column("kind", "segment"))
        assert not record.model_refit
        assert state.dataset_version != version
        assert state.assign_cache[1] is assign
        assert state.assign_cache[0] is state.frs  # re-keyed to the migrated rules
        assert state.predictions_cache == (state.model, preds)
