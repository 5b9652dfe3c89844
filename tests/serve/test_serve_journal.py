"""Serving-layer journals: per-session isolation and telemetry parity.

With ``EditService(journal_dir=...)`` every served session writes its own
session journal (same format and replay tooling as
``EditSession.journaled``) and the service appends admission decisions,
per-quantum grants, and terminal outcomes to ``<journal_dir>/_service``.
Pinned here:

* 4 concurrent sessions → one valid journal per session, each replaying
  to exactly its own session's history (no cross-session leakage);
* ``stats()`` step-latency percentiles agree with latencies recomputed
  from the service journal's quantum records;
* journaling never perturbs serving (results stay bit-identical to the
  unjournaled run) and a session's own ``journaled(...)`` config is
  honored when the service has no journal directory;
* a served session starts like ``EditSession.run()``: ``resume=False``
  wipes its journal, a non-integer seed refuses to resume one, and no
  two live sessions share a journal.  (Crash-then-resume under a
  journaled service is the ``served-journaled`` row of the mode table.)
"""

import asyncio

import pytest
from conftest import assert_same_run
from serveutil import make_dataset, make_spec

import repro
from repro.journal import JournalReader, JournalResumeError, SessionReplay
from repro.serve.service import EditService, _percentile_ms

SEEDS = (11, 22, 33, 44)


def serve_fleet(journal_dir, *, tau=3):
    """Run one 4-tenant fleet with per-session seeds; returns results."""

    async def main():
        async with EditService(journal_dir=str(journal_dir)) as service:
            for seed in SEEDS:
                service.submit(
                    make_spec(tau=tau, seed=seed), name=f"tenant-{seed}"
                )
            outcomes = await service.run_all()
            stats = service.stats()
            errors = service.journal_errors
        return outcomes, stats, errors

    return asyncio.run(main())


class TestSessionJournalIsolation:
    def test_four_concurrent_sessions_one_valid_journal_each(self, tmp_path):
        outcomes, _, errors = serve_fleet(tmp_path)
        assert errors == 0
        assert set(outcomes) == {f"tenant-{seed}" for seed in SEEDS}

        for seed in SEEDS:
            name = f"tenant-{seed}"
            scan = JournalReader(tmp_path / name).scan()
            assert scan.ok, f"{name}: {scan.truncation}"
            # The journal belongs to exactly this session...
            assert scan.header.data["meta"]["name"] == name
            assert scan.header.data["meta"]["journal_kind"] == "session"
            assert len(scan.of_kind("run-meta")) == 1
            # ...and replays to exactly this session's live history.
            replay = SessionReplay.load(tmp_path / name)
            assert replay.history() == outcomes[name].history
            assert replay.summary()["finished"]

        # Distinct seeds give distinct trajectories — shared records
        # would be visible as identical histories across journals.
        histories = {
            seed: tuple(SessionReplay.load(tmp_path / f"tenant-{seed}").history())
            for seed in SEEDS
        }
        assert len(set(histories.values())) > 1

    def test_journaling_does_not_perturb_results(self, tmp_path):
        journaled, _, _ = serve_fleet(tmp_path / "a")

        async def plain():
            async with EditService() as service:
                for seed in SEEDS:
                    service.submit(
                        make_spec(tau=3, seed=seed), name=f"tenant-{seed}"
                    )
                return await service.run_all()

        unjournaled = asyncio.run(plain())
        for name, result in unjournaled.items():
            assert_same_run(result, journaled[name])

    def test_session_config_journal_dir_honored_without_service_dir(
        self, tmp_path
    ):
        async def main():
            async with EditService() as service:  # no service journal_dir
                handle = service.submit(
                    make_spec(tau=3, seed=5).journaled(tmp_path, name="own"),
                    name="t",
                )
                return await handle.run_to_completion()

        result = asyncio.run(main())
        replay = SessionReplay.load(tmp_path / "own")
        assert replay.history() == result.history
        # No service journal was created (only the session's own).
        assert not (tmp_path / "_service").exists()


def serve_one(spec, name="t"):
    """Serve ``spec`` alone on a service without a journal directory."""

    async def main():
        async with EditService() as service:
            return await service.submit(spec, name=name).run_to_completion()

    return asyncio.run(main())


class TestServedStart:
    def test_resume_false_wipes_the_journal(self, tmp_path):
        serve_one(make_spec(tau=3, seed=5).journaled(tmp_path, name="own"))
        result = serve_one(
            make_spec(tau=3, seed=5).journaled(tmp_path, name="own", resume=False)
        )
        replay = SessionReplay.load(tmp_path / "own")
        assert replay.summary()["runs"] == 1
        assert replay.summary()["resumes"] == 0
        assert replay.history() == result.history

    def test_unseeded_session_refuses_to_resume(self, tmp_path):
        spec = make_spec(tau=2, seed=5).configure(random_state=None)
        serve_one(spec.journaled(tmp_path, name="own"))
        with pytest.raises(JournalResumeError, match="integer random_state"):
            serve_one(spec.journaled(tmp_path, name="own"))

    def test_other_rules_refuse_to_resume(self, tmp_path):
        serve_one(make_spec(tau=2, seed=5).journaled(tmp_path, name="own"))
        other = (
            repro.edit(make_dataset(250, 5))
            .with_rules("age < 30 => approve", "income < 40 AND marital = 'single' => deny")
            .with_algorithm("LR")
            .configure(tau=2, q=0.5, random_state=5)
        )
        with pytest.raises(JournalResumeError, match="'rules'"):
            serve_one(other.journaled(tmp_path, name="own"))

    def test_other_model_refuses_to_resume(self, tmp_path):
        serve_one(make_spec(tau=2, seed=5).journaled(tmp_path, name="own"))
        other = make_spec(tau=2, seed=5).with_algorithm("RF")
        with pytest.raises(JournalResumeError, match="'algorithm'"):
            serve_one(other.journaled(tmp_path, name="own"))

    def test_second_live_session_on_one_journal_is_refused(self, tmp_path):
        async def main():
            async with EditService() as service:
                first = service.submit(
                    make_spec(tau=3, seed=5).journaled(tmp_path, name="own"),
                    name="a",
                )
                with pytest.raises(ValueError, match="already in use"):
                    service.submit(
                        make_spec(tau=3, seed=6).journaled(tmp_path, name="own"),
                        name="b",
                    )
                result = await first.run_to_completion()
                # A terminal session frees its journal: the resubmission
                # fast-forwards the finished run instead of recomputing it.
                again = service.submit(
                    make_spec(tau=3, seed=5).journaled(tmp_path, name="own"),
                    name="c",
                )
                return result, await again.run_to_completion()

        result, again = asyncio.run(main())
        assert_same_run(again, result)
        assert JournalReader(tmp_path / "own").scan().ok
        summary = SessionReplay.load(tmp_path / "own").summary()
        assert (summary["runs"], summary["resumes"]) == (1, 1)

    @pytest.mark.parametrize("where", ["service", "spec"])
    def test_default_name_never_resumes_another_sessions_journal(
        self, tmp_path, where
    ):
        """Services started in turn on one directory restart their
        default names at ``session-0``; a later unnamed tenant with other
        rules must compute its own run, not replay the earlier one."""

        def spec(rule):
            return (
                repro.edit(make_dataset(250, 5))
                .with_rules(rule)
                .with_algorithm("LR")
                .configure(tau=3, q=0.5, random_state=5)
            )

        def serve(rule):
            built = spec(rule)
            if where == "spec":
                built.journaled(tmp_path)

            async def main():
                service_dir = str(tmp_path) if where == "service" else None
                async with EditService(journal_dir=service_dir) as service:
                    return await service.submit(built).run_to_completion()

            return asyncio.run(main())

        serve("age < 35 => approve")
        rule = "income < 40 AND marital = 'single' => deny"
        assert_same_run(serve(rule), spec(rule).run())
        assert sorted(p.name for p in tmp_path.glob("session-*")) == [
            "session-0",
            "session-1",
        ]

    def test_session_named_after_the_service_journal_is_refused(self, tmp_path):
        async def main():
            async with EditService(journal_dir=str(tmp_path)) as service:
                with pytest.raises(ValueError, match="in use by '_service'"):
                    service.submit(make_spec(tau=2, seed=5), name="_service")

        asyncio.run(main())
        assert JournalReader(tmp_path / "_service").scan().ok


class TestServiceJournal:
    def test_stats_percentiles_agree_with_journal(self, tmp_path):
        _, stats, _ = serve_fleet(tmp_path)

        scan = JournalReader(tmp_path / "_service").scan()
        assert scan.ok
        assert scan.header.data["meta"]["journal_kind"] == "service"

        steps = [
            r.data["seconds"]
            for r in scan.of_kind("quantum")
            if r.data["kind"] == "step"
        ]
        assert len(steps) == stats["steps_total"]
        # Same samples through the same estimator: exact agreement
        # (journal floats round-trip float64 bit-exactly).
        assert _percentile_ms(steps, 50.0) == stats["p50_step_ms"]
        assert _percentile_ms(steps, 99.0) == stats["p99_step_ms"]

    def test_lifecycle_records_cover_every_session(self, tmp_path):
        _, stats, _ = serve_fleet(tmp_path)
        scan = JournalReader(tmp_path / "_service").scan()

        submitted = scan.of_kind("session-submitted")
        granted = scan.of_kind("admission-granted")
        terminal = scan.of_kind("session-terminal")
        names = {f"tenant-{seed}" for seed in SEEDS}
        assert {r.data["name"] for r in submitted} == names
        assert {r.data["name"] for r in granted} == names
        assert {r.data["name"] for r in terminal} == names
        assert all(r.data["status"] == "done" for r in terminal)
        # Quantum records only ever name submitted sessions.
        assert {r.data["name"] for r in scan.of_kind("quantum")} <= names
        # Closing stamps the final stats snapshot.
        (closed,) = scan.of_kind("service-closed")
        assert closed.data["stats"]["n_completed"] == stats["n_completed"] == 4

    def test_cancelled_session_settles_its_journal(self, tmp_path):
        async def main():
            async with EditService(journal_dir=str(tmp_path)) as service:
                handle = service.submit(make_spec(tau=50, seed=9), name="victim")
                await handle.step()  # setup quantum: journal attached
                await handle.step()
                handle.cancel(reason="test-cancel")
                try:
                    await handle.result()
                except Exception:
                    pass
                return handle.status

        status = asyncio.run(main())
        assert status == "cancelled"
        scan = JournalReader(tmp_path / "victim").scan()
        assert scan.ok  # closed cleanly at cancellation, not torn
        (terminal,) = JournalReader(tmp_path / "_service").scan().of_kind(
            "session-terminal"
        )
        assert terminal.data["status"] == "cancelled"
        assert terminal.data["cancel_reason"] == "test-cancel"
