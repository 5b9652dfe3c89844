"""Journal parity across schema migrations.

The schema-evolution acceptance criteria, pinned at test scale:

* a session that adds and renames columns mid-run, crashed after a
  migration and an accepted post-migration batch were journaled,
  fast-forwards through the schema deltas and finishes **bit-identical**
  to the uninterrupted run (history, final columns, labels, and the
  content-hashed version lineage);
* the journal records the schema timeline (``SessionReplay
  .schema_timeline()``) and replay validates the re-derived version
  tokens against the journaled ones;
* runs with no schema deltas journal no schema records — the frozen
  default path is untouched.
"""

import pytest

from repro.data.evolution import SchemaDelta
from repro.journal import JournalReader, SessionReplay

from conftest import SimulatedCrash, assert_same_run, crash_at_fit
from test_replay_parity import make_session

DELTA2 = SchemaDelta.add_column("tenure", fill=3.0)
DELTA4 = SchemaDelta.rename_column("income", "annual_income")


def migrating_session(jdir, name, algorithm=None):
    """tau=8 with accept_equal so a batch is accepted *after* the
    iteration-2 migration — exercising journaled batches keyed by the
    migrated schema — plus a rule deferred until ``tenure`` lands."""
    session = (
        make_session(tau=8, accept_equal=True)
        .with_schema_migration(2, DELTA2)
        .with_schema_migration(4, DELTA4)
        .with_scheduled_rules(3, "tenure > 2 AND age < 30 => approve")
        .journaled(jdir, name=name)
    )
    if algorithm is not None:
        session = session.with_algorithm(algorithm)
    return session


class TestSchemaCrashResume:
    def test_crash_after_migration_resumes_bit_identical(self, tmp_path):
        full = migrating_session(tmp_path, "full").run()
        assert [r.iteration for r in full.schema_log] == [2, 4]
        assert [r.model_refit for r in full.schema_log] == [True, False]
        assert "annual_income" in full.dataset.X.schema.names

        # Fit #6 dies inside iteration 3: the journal holds the
        # iteration-2 migration plus an accepted post-migration batch.
        with pytest.raises(SimulatedCrash):
            migrating_session(tmp_path, "crash", crash_at_fit(6)).run()

        replay = SessionReplay.load(tmp_path / "crash")
        committed = replay.committed()
        assert 0 < len(committed) < 8
        assert any(c.accepted for c in committed)
        assert len(replay.schema_timeline()) == 1
        assert replay.schema_timeline()[0]["op"] == "add_column"

        resumed = migrating_session(tmp_path, "crash").run()
        assert_same_run(resumed, full)

        replay = SessionReplay.load(tmp_path / "crash")
        assert replay.summary()["resumes"] == 1
        assert replay.summary()["finished"]
        assert replay.summary()["schema_deltas"] == 2

    def test_crash_before_first_migration_resumes_bit_identical(self, tmp_path):
        full = migrating_session(tmp_path, "full").run()
        # Fit #3 dies inside iteration 2, before the boundary migration.
        with pytest.raises(SimulatedCrash):
            migrating_session(tmp_path, "crash", crash_at_fit(3)).run()
        assert SessionReplay.load(tmp_path / "crash").schema_timeline() == []
        resumed = migrating_session(tmp_path, "crash").run()
        assert_same_run(resumed, full)

    def test_finished_migrated_journal_fast_forwards(self, tmp_path):
        full = migrating_session(tmp_path, "s").run()
        again = migrating_session(tmp_path, "s").run()
        assert_same_run(again, full)
        replay = SessionReplay.load(tmp_path / "s")
        assert replay.summary()["runs"] == 1
        assert replay.summary()["resumes"] == 1

    def test_schema_timeline_carries_lineage(self, tmp_path):
        result = migrating_session(tmp_path, "s").run()
        timeline = SessionReplay.load(tmp_path / "s").schema_timeline()
        assert [row["iteration"] for row in timeline] == [2, 4]
        assert [row["op"] for row in timeline] == [
            "add_column", "rename_column",
        ]
        assert [row["version"] for row in timeline] == [
            r.version for r in result.schema_log
        ]
        # The chain links: the rename's parent is the add's version.
        assert timeline[1]["parent"] == timeline[0]["version"]

    def test_frozen_run_journals_no_schema_records(self, tmp_path):
        make_session().journaled(tmp_path, name="s").run()
        replay = SessionReplay.load(tmp_path / "s")
        assert replay.schema_timeline() == []
        assert replay.summary()["schema_deltas"] == 0
        kinds = {
            record.kind
            for record in JournalReader(tmp_path / "s").iter_records()
        }
        assert "schema-delta" not in kinds
