"""Feeding rules into served sessions at quantum boundaries.

``SessionHandle.feed(...)`` stages events immediately but delivers them
only at the next quantum boundary, so served sessions keep the same
boundary-granular determinism as ``EditSession`` feedback and the
applied deltas land in the run journal.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.data.evolution import SchemaDelta
from repro.feedback import RuleProposal
from repro.journal import SessionReplay
from repro.rules import FeedbackRule, Predicate, clause
from repro.serve import EditService, ServeError

from serveutil import make_spec


def run(coro):
    return asyncio.run(coro)


# Disjoint from make_spec's planted rules on age, opposite-label-safe.
EXTRA = FeedbackRule.deterministic(
    clause(Predicate("age", ">", 70.0)), 1, 2, name="elder"
)


class TestFeedDelivery:
    def test_feed_mid_run_lands_at_boundary(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=4, tau=6), name="mid")
            await handle.step()  # setup quantum
            await handle.step()  # iteration 1
            fed_at = handle.inspect().iteration
            handle.feed(RuleProposal(EXTRA, source="expert"))
            while not handle.done:
                await handle.step()
            return fed_at, await handle.result()

        fed_at, result = run(main())
        assert len(result.frs) == 3
        assert [d.iteration for d in result.ruleset_log] == [fed_at]
        assert "elder" in [r.name for r in result.frs]

    def test_feed_accepts_rule_strings(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=5, tau=4), name="str")
            n = handle.feed("age > 70 => approve", source="cli")
            result = await handle.run_to_completion()
            return n, result

        n, result = run(main())
        assert n == 1
        assert len(result.frs) == 3

    def test_feed_after_terminal_errors(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=6, tau=3), name="late")
            await handle.run_to_completion()
            with pytest.raises(ServeError, match="already"):
                handle.feed(RuleProposal(EXTRA))

        run(main())

    def test_unfed_session_results_unchanged(self):
        """Attaching the (empty) feed source to every served session must
        not perturb the serve-vs-batch parity contract."""
        from conftest import assert_same_run

        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=7, tau=4), name="plain")
            return await handle.run_to_completion()

        served = run(main())
        batch = make_spec(seed=7, tau=4).run()
        assert_same_run(served, batch)


class TestFeedJournal:
    def test_mid_run_feed_replays_rule_timeline(self, tmp_path):
        async def main():
            async with EditService(journal_dir=str(tmp_path)) as service:
                handle = service.submit(make_spec(seed=8, tau=6), name="jfed")
                await handle.step()
                await handle.step()
                handle.feed(RuleProposal(EXTRA, source="expert"))
                while not handle.done:
                    await handle.step()
                return await handle.result()

        result = run(main())
        replay = SessionReplay.load(tmp_path / "jfed")
        timeline = replay.rule_timeline()
        assert [row["rules"] for row in timeline] == [["elder"]]
        assert timeline[0]["iteration"] == result.ruleset_log[0].iteration
        assert "expert" in timeline[0]["provenance"]
        assert replay.history() == result.history


class TestSpecIsolation:
    def test_carve_does_not_mutate_callers_session(self):
        spec = make_spec(seed=9, tau=3)

        async def main():
            service = EditService()
            handle = service.submit(spec, name="iso")
            handle.feed(RuleProposal(EXTRA, source="expert"))
            return await handle.run_to_completion()

        served = run(main())
        assert len(served.frs) == 3
        # The caller's spec acquired no feed source and no scheduled
        # rules; a fresh batch run still sees only its own two rules.
        assert spec._feedback_sources == []
        assert spec._scheduled_rules == {}
        assert len(spec.run().frs) == 2

    def test_carve_copies_schema_migrations(self):
        """Migrations the caller schedules after ``submit`` stay out of
        the served run, at a new boundary and at an already-scheduled one."""
        spec = make_spec(seed=9, tau=3).with_schema_migration(
            1, SchemaDelta.add_column("tenure")
        )

        async def main():
            service = EditService()
            handle = service.submit(spec, name="iso-schema")
            spec.with_schema_migration(1, SchemaDelta.add_column("late_same"))
            spec.with_schema_migration(2, SchemaDelta.add_column("late_new"))
            return await handle.run_to_completion()

        served = run(main())
        assert [r.delta for r in served.schema_log] == [
            SchemaDelta.add_column("tenure")
        ]
        assert "late_new" not in served.dataset.X.schema.names
