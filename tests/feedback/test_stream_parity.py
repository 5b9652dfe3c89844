"""Streamed feedback around its parity contract, plus journaled rule
timelines.

* **Streamed-append parity** — a run that receives an append-only rule
  through a ``FeedbackSource`` at iteration *k* is bit-identical to a
  run where the rule was scheduled to activate at iteration *k*
  (``with_scheduled_rules``).  That contract, plain and journaled, is a
  row of the mode-contract table (``tests/test_mode_contracts.py``);
  the tests here pin what surrounds it: the committed prefix, gating,
  determinism and crash-resume.
* **Journal reconstruction** — feedback events are journaled as
  ``ruleset-delta`` records, so ``SessionReplay.rule_timeline()`` and
  crash-resume rebuild the run's rule timeline from the journal alone.
"""

from __future__ import annotations

import pytest

import repro
from repro.feedback import (
    RuleProposal,
    RuleVerdict,
    ScriptedFeedbackSource,
)
from repro.journal import SessionReplay
from repro.journal import cli as journal_cli
from repro.rules import FeedbackRule, Predicate, clause

from conftest import SimulatedCrash, assert_same_run, crash_at_fit, make_tiny_dataset

DATASET = make_tiny_dataset(n=150, seed=11)

BASE = FeedbackRule.deterministic(
    clause(Predicate("x1", "<", -0.5)), 1, 2, name="base"
)
# Disjoint from BASE on x1 -> classified append whenever it arrives.
LATE = FeedbackRule.deterministic(
    clause(Predicate("x1", ">", 0.8)), 0, 2, name="late"
)
# Overlaps BASE with the opposite label -> carve-out rebuild.
CONTRA = FeedbackRule.deterministic(
    clause(Predicate("x1", "<", -0.9)), 0, 2, name="contra"
)


def session(**configure):
    defaults = dict(tau=6, q=0.5, eta=8, random_state=7, mod_strategy="none")
    defaults.update(configure)
    return (
        repro.edit(DATASET)
        .with_rules(BASE)
        .with_algorithm("LR")
        .configure(**defaults)
    )


class TestStreamedAppendParity:
    def test_streamed_differs_from_batch_start(self):
        """The rule genuinely changes the run once it lands."""
        streamed = session().with_feedback(
            ScriptedFeedbackSource([(3, LATE)])
        ).run()
        batch = session().with_rules(LATE).run()
        assert len(streamed.frs) == len(batch.frs) == 2
        # With the rule active from iteration 0, the loop generates for
        # it immediately — the per-iteration records cannot all coincide.
        assert streamed.history != batch.history

    def test_prefix_before_delivery_is_untouched(self):
        plain = session().run()
        streamed = session().with_feedback(
            ScriptedFeedbackSource([(4, LATE)])
        ).run()
        assert streamed.history[:4] == plain.history[:4]

    def test_rerun_is_deterministic(self):
        spec = session().with_feedback(ScriptedFeedbackSource([(3, LATE)]))
        assert_same_run(spec.run(), spec.run())

    def test_rebuild_delivery_is_deterministic(self):
        spec = session().with_feedback(ScriptedFeedbackSource([(2, CONTRA)]))
        a, b = spec.run(), spec.run()
        assert_same_run(a, b)
        assert len(a.frs) == 2  # carved pair, no duplicate exceptions

    def test_empty_start_session(self):
        """A session may start ruleless and receive everything via stream."""
        result = (
            repro.edit(DATASET)
            .with_algorithm("LR")
            .configure(tau=5, q=0.5, eta=8, random_state=7, mod_strategy="none")
            .with_feedback(ScriptedFeedbackSource([(1, BASE)]))
            .run()
        )
        assert len(result.frs) == 1
        assert result.iterations == 5

    def test_ruleless_session_without_feedback_still_errors(self):
        with pytest.raises(ValueError, match="feedback"):
            repro.edit(DATASET).with_algorithm("LR").run()


class TestAggregationGating:
    def test_unapproved_rule_never_lands(self):
        src = ScriptedFeedbackSource(
            [(2, RuleProposal(LATE, source="expert")),
             (2, RuleVerdict(RuleProposal(LATE).proposal_id, approve=False,
                             source="reviewer"))]
        )
        result = session().with_feedback(
            src, policy="unanimous", min_votes=2
        ).run()
        assert len(result.frs) == 1  # rejected before quota

    def test_quorum_delivery_across_iterations(self):
        pid = RuleProposal(LATE).proposal_id
        src = ScriptedFeedbackSource(
            [(1, RuleProposal(LATE, source="alice")),
             (3, RuleVerdict(pid, approve=True, source="bob"))]
        )
        result = session().with_feedback(src, policy="quorum", quorum=2).run()
        assert len(result.frs) == 2
        # Quorum reached at iteration 3 -> identical to scheduling there.
        scheduled = session().with_scheduled_rules(3, LATE).run()
        assert_same_run(result, scheduled)


class TestJournaledFeedback:
    def make_journaled(self, tmp_path, **kwargs):
        src = ScriptedFeedbackSource([(3, RuleProposal(LATE, source="expert"))])
        return session(
            journal_dir=str(tmp_path), journal_name="fb", journal_resume=True,
            **kwargs,
        ).with_feedback(src)

    def test_rule_timeline_from_journal_alone(self, tmp_path):
        self.make_journaled(tmp_path).run()
        replay = SessionReplay.load(tmp_path / "fb")
        timeline = replay.rule_timeline()
        assert len(timeline) == 1
        row = timeline[0]
        assert row["iteration"] == 3
        assert row["kind"] == "append"
        assert row["rules"] == ["late"]
        assert row["n_rules"] == 2
        assert "expert" in row["provenance"]
        assert replay.summary()["ruleset_deltas"] == 1
        # The status table renders ruleset-delta records without a gate error.
        assert journal_cli.main(["--strict", "status", str(tmp_path)]) == 0

    def test_fast_forward_resume_matches_uninterrupted(self, tmp_path):
        first = self.make_journaled(tmp_path).run()
        again = self.make_journaled(tmp_path).run()  # full fast-forward
        assert_same_run(first, again)
        assert len(again.frs) == 2
        replay = SessionReplay.load(tmp_path / "fb")
        assert replay.summary()["resumes"] == 1
        # The timeline is content-deduped across the resume boundary.
        assert len(replay.rule_timeline()) == 1

    def test_resumed_run_does_not_reapply_rules(self, tmp_path):
        self.make_journaled(tmp_path).run()
        again = self.make_journaled(tmp_path).run()
        # One append over the single base rule, exactly once.
        assert len(again.frs) == 2
        assert [r.name for r in again.frs] == ["base", "late"]


class TestCrashResumeWithFeedback:
    """Interrupted journaled runs rebuild the rule timeline on resume."""

    def crashing_session(self, tmp_path, *, fail_at_fit):
        src = ScriptedFeedbackSource([(3, RuleProposal(LATE, source="expert"))])
        return (
            session(
                journal_dir=str(tmp_path), journal_name="crash",
                journal_resume=True,
            )
            .with_algorithm(crash_at_fit(fail_at_fit))
            .with_feedback(src)
        )

    def uninterrupted(self, tmp_path):
        src = ScriptedFeedbackSource([(3, RuleProposal(LATE, source="expert"))])
        return session(
            journal_dir=str(tmp_path), journal_name="full", journal_resume=True,
        ).with_feedback(src).run()

    @pytest.mark.parametrize(
        "fail_at_fit, crash_phase",
        [
            # Fit k happens in iteration k-2 (setup fit + one candidate
            # fit per iteration).  Failing at fit 5 dies inside iteration
            # 3 — *after* the boundary applied the delta but before the
            # iteration committed: the delta is a tail record at resume.
            (5, "tail"),
            # Failing at fit 7 dies inside iteration 5, with the delta's
            # iteration 3 already committed: the committed-prefix path.
            (7, "committed"),
        ],
    )
    def test_resume_bit_identical_and_timeline_deduped(
        self, tmp_path, fail_at_fit, crash_phase
    ):
        want = self.uninterrupted(tmp_path)

        with pytest.raises(SimulatedCrash):
            self.crashing_session(tmp_path, fail_at_fit=fail_at_fit).run()
        partial = SessionReplay.load(tmp_path / "crash")
        committed = partial.committed()
        assert 0 < len(committed) < 6
        assert len(partial.rule_timeline()) == 1

        got = self.crashing_session(tmp_path, fail_at_fit=0).run()
        assert_same_run(want, got)
        assert [r.name for r in got.frs] == ["base", "late"]

        replay = SessionReplay.load(tmp_path / "crash")
        assert replay.summary()["resumes"] == 1
        assert replay.summary()["finished"]
        # Re-applied at resume, still one delta after content dedup.
        timeline = replay.rule_timeline()
        assert len(timeline) == 1
        assert timeline[0]["iteration"] == 3


class TestServedFeedParity:
    """A served session fed at a boundary replays to the same timeline."""

    def test_feed_journal_replays_rule_timeline(self, tmp_path):
        import asyncio

        from repro.serve import EditService

        async def main():
            async with EditService(journal_dir=str(tmp_path)) as service:
                handle = service.submit(session(), name="fed")
                handle.feed(RuleProposal(LATE, source="client"))
                return await handle.run_to_completion()

        result = asyncio.run(main())
        assert len(result.frs) == 2
        replay = SessionReplay.load(tmp_path / "fed")
        timeline = replay.rule_timeline()
        assert [row["rules"] for row in timeline] == [["late"]]
        assert timeline[0]["iteration"] == 0  # staged before setup
        assert replay.history() == result.history
