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
  honored when the service has no journal directory.
"""

import asyncio

from conftest import assert_same_run
from serveutil import make_spec

from repro.journal import JournalReader, SessionReplay
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
