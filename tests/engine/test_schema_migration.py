"""Engine-level schema migration: apply_schema_delta over a live state,
the with_schema_migration schedule, and rule parking/deferral."""

import numpy as np
import pytest

import repro
from repro.data.evolution import (
    Migration,
    SchemaDelta,
    SchemaMigrationError,
    schema_fingerprint,
)
from repro.engine.migration import (
    SchemaMigrationRecord,
    apply_schema_delta,
    migration_from_jsonable,
    migration_to_jsonable,
)
from repro.feedback import ScriptedFeedbackSource


def base_session(dataset, frs, **cfg):
    return (
        repro.edit(dataset)
        .with_rules(frs)
        .with_algorithm("LR")
        .configure(**{"tau": 4, "q": 0.5, "random_state": 0, **cfg})
    )


@pytest.fixture
def live_state(mixed_dataset, single_rule_frs):
    """A state after engine setup: active dataset, fitted model, caches."""
    session = base_session(mixed_dataset, single_rule_frs)
    state = session.build_state()
    session.build_engine().initialize(state)
    return state


class TestApplySchemaDelta:
    def test_add_column_migrates_dataset_and_refits(self, live_state):
        old_model = live_state.model
        old_version = live_state.dataset_version
        record = apply_schema_delta(
            live_state, SchemaDelta.add_column("tenure", fill=3.0)
        )
        assert isinstance(record, SchemaMigrationRecord)
        assert record.model_refit
        assert "tenure" in live_state.active.X.schema.names
        np.testing.assert_array_equal(
            live_state.active.X.column("tenure"),
            np.full(live_state.active.n, 3.0),
        )
        assert live_state.model is not old_model  # deterministic refit
        assert live_state.dataset_version != old_version
        assert live_state.schema_log == [record]

    def test_rename_survives_without_refit(self, live_state):
        old_model = live_state.model
        record = apply_schema_delta(
            live_state, SchemaDelta.rename_column("income", "annual_income")
        )
        assert not record.model_refit
        assert live_state.model is old_model  # encoder migrated symbolically
        assert "annual_income" in live_state.active.X.schema.names
        # Rules migrated in lockstep: none still references the old name.
        for rule in live_state.frs.rules:
            assert "income" not in rule.clause.attributes

    def test_assignment_cache_rekeyed_not_recomputed(self, live_state):
        assign = live_state.active_assignment()
        apply_schema_delta(live_state, SchemaDelta.add_column("tenure"))
        assert live_state.assign_cache[1] is assign  # the array survived
        assert live_state.assign_cache[0] is live_state.frs

    def test_version_lineage_content_hashed(self, live_state, mixed_dataset,
                                            single_rule_frs):
        delta = SchemaDelta.add_column("tenure", fill=1.0)
        record = apply_schema_delta(live_state, delta)
        assert record.parent == schema_fingerprint(mixed_dataset.X.schema)
        # An independent state applying the same delta derives the same token.
        session = base_session(mixed_dataset, single_rule_frs)
        other = session.build_state()
        session.build_engine().initialize(other)
        assert apply_schema_delta(other, delta).version == record.version

    def test_refused_delta_is_a_clean_noop(self, live_state):
        before_schema = live_state.active.X.schema
        before_version = live_state.dataset_version
        before_model = live_state.model
        with pytest.raises(SchemaMigrationError, match="references column"):
            apply_schema_delta(live_state, SchemaDelta.drop_column("age"))
        assert live_state.active.X.schema == before_schema
        assert live_state.dataset_version == before_version
        assert live_state.model is before_model
        assert live_state.schema_log == []

    def test_emits_schema_event(self, live_state):
        events = []
        live_state.listeners.append(events.append)
        record = apply_schema_delta(live_state, SchemaDelta.add_column("t"))
        kinds = [e.kind for e in events]
        assert "schema" in kinds
        assert events[kinds.index("schema")].schema is record

    def test_reevaluates_under_migrated_state(self, live_state):
        apply_schema_delta(live_state, SchemaDelta.add_column("t"))
        assert live_state.evaluation is not None
        assert np.isfinite(live_state.best_loss)
        assert not live_state.population_is_current()

    def test_record_jsonable_roundtrip(self, live_state):
        record = apply_schema_delta(
            live_state, SchemaDelta.rename_column("color", "hue"),
            provenance="ops",
        )
        assert migration_from_jsonable(migration_to_jsonable(record)) == record


class TestScheduledMigrations:
    def test_migration_lands_at_its_boundary(self, mixed_dataset,
                                             single_rule_frs):
        result = (
            base_session(mixed_dataset, single_rule_frs)
            .with_schema_migration(2, SchemaDelta.add_column("tenure", fill=1.0))
            .run()
        )
        assert [r.iteration for r in result.schema_log] == [2]
        assert result.schema_log[0].provenance == "scheduled@2"
        assert "tenure" in result.dataset.X.schema.names
        assert result.dataset.X.column("tenure").shape[0] == result.dataset.n

    def test_rename_migrates_final_ruleset(self, mixed_dataset,
                                           single_rule_frs):
        result = (
            base_session(mixed_dataset, single_rule_frs)
            .with_schema_migration(1, SchemaDelta.rename_column("age", "years"))
            .run()
        )
        assert "years" in result.dataset.X.schema.names
        assert all(
            "age" not in r.clause.attributes for r in result.frs.rules
        )

    def test_whole_migration_expands_in_order(self, mixed_dataset,
                                              single_rule_frs):
        migration = Migration(
            (
                SchemaDelta.add_column("tenure"),
                SchemaDelta.rename_column("tenure", "years"),
            ),
            name="v2",
        )
        result = (
            base_session(mixed_dataset, single_rule_frs)
            .with_schema_migration(1, migration)
            .run()
        )
        assert [r.delta.op for r in result.schema_log] == [
            "add_column", "rename_column",
        ]
        assert "years" in result.dataset.X.schema.names

    def test_rejects_non_delta(self, mixed_dataset):
        with pytest.raises(TypeError, match="SchemaDelta or Migration"):
            repro.edit(mixed_dataset).with_schema_migration(1, "drop age")

    def test_rejects_negative_iteration(self, mixed_dataset):
        with pytest.raises(ValueError, match=">= 0"):
            repro.edit(mixed_dataset).with_schema_migration(
                -1, SchemaDelta.add_column("t")
            )

    def test_frozen_run_has_empty_schema_log(self, mixed_dataset,
                                             single_rule_frs):
        result = base_session(mixed_dataset, single_rule_frs).run()
        assert result.schema_log == []


class TestParkingAndDeferral:
    def test_scheduled_rule_parks_until_column_lands(self, mixed_dataset,
                                                     single_rule_frs):
        result = (
            base_session(mixed_dataset, single_rule_frs, tau=5)
            .with_scheduled_rules(1, "tenure > 2 => approve")
            .with_schema_migration(3, SchemaDelta.add_column("tenure", fill=3.0))
            .run()
        )
        assert [r.iteration for r in result.schema_log] == [3]
        applied = [
            d
            for d in result.ruleset_log
            if any("tenure" in r.clause.attributes for r in d.rules_added)
        ]
        assert len(applied) == 1
        assert applied[0].iteration >= 3  # waited for the column
        assert any(
            "tenure" in r.clause.attributes for r in result.frs.rules
        )

    def test_streamed_migration_then_dependent_rule_same_boundary(
        self, mixed_dataset, single_rule_frs
    ):
        source = ScriptedFeedbackSource(
            {2: [SchemaDelta.add_column("tenure", fill=3.0)]}
        )
        result = (
            base_session(mixed_dataset, single_rule_frs, tau=5)
            .with_feedback(source)
            .with_scheduled_rules(2, "tenure > 2 => approve")
            .run()
        )
        # Migration applies before the same boundary's scheduled rule.
        assert [r.iteration for r in result.schema_log] == [2]
        assert any(
            "tenure" in r.clause.attributes for r in result.frs.rules
        )

    def test_unknown_attribute_string_defers_but_bad_syntax_raises(
        self, mixed_dataset
    ):
        session = repro.edit(mixed_dataset)
        session.with_scheduled_rules(1, "tenure > 2 => approve")  # defers
        with pytest.raises(Exception, match="age"):
            # Bad value for an existing column can never be fixed by a
            # migration: it must raise eagerly.
            session.with_scheduled_rules(1, "age > 'abc' => approve")
