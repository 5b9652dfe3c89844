"""EditService behaviour: events, stepping, cancellation, timeouts, budgets."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve import (
    AdmissionError,
    EditService,
    ServeError,
    SessionCancelled,
)

from serveutil import make_spec


def run(coro):
    return asyncio.run(coro)


class TestEvents:
    def test_streams_engine_events_in_order(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=1))
            kinds = []

            async def watch():
                async for event in handle.events():
                    kinds.append(event.kind)

            watcher = asyncio.ensure_future(watch())
            await handle.run_to_completion()
            await watcher
            return kinds

        kinds = run(main())
        assert kinds[0] == "started"
        assert kinds[-1] == "finished"
        assert all(
            k in {"started", "accepted", "rejected", "empty-batch", "finished"}
            for k in kinds
        )

    def test_bounded_queue_drops_oldest(self):
        async def main():
            service = EditService(event_queue_size=2)
            handle = service.submit(make_spec(seed=1, tau=4))
            await handle.run_to_completion()
            # Nothing consumed while running: only the 2 newest survive.
            remaining = [event.kind async for event in handle.events()]
            return remaining, handle.inspect().events_dropped

        remaining, dropped = run(main())
        assert len(remaining) == 2
        assert remaining[-1] == "finished"
        assert dropped > 0

    def test_events_iterator_ends_after_terminal_drain(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=2))
            await handle.run_to_completion()
            first = [e.kind async for e in handle.events()]
            second = [e.kind async for e in handle.events()]
            return first, second

        first, second = run(main())
        assert first and first[-1] == "finished"
        assert second == []  # queue already drained, session terminal


class TestStepping:
    def test_view_advances_per_quantum(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=3, tau=3))
            views = []
            while not handle.done:
                views.append(await handle.step())
            return views, handle.status

        views, status = run(main())
        assert status == "done"
        # First quantum is setup, later ones are loop steps + finalize.
        assert views[0].quanta_done == 1 and views[0].steps_done == 0
        assert views[-1].steps_done == views[-1].quanta_done - 2

    def test_step_after_done_raises(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=3, tau=2))
            while not handle.done:
                await handle.step()
            with pytest.raises(ServeError, match="already finished"):
                await handle.step()

        run(main())

    def test_step_while_auto_driving_raises(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=3))
            task = asyncio.ensure_future(handle.run_to_completion())
            await asyncio.sleep(0)
            with pytest.raises(ServeError, match="auto-driven"):
                await handle.step()
            await task

        run(main())


class TestCancellation:
    def test_cancel_mid_run_rolls_back_staged_rows(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=4, tau=50))

            async def watch():
                async for event in handle.events():
                    if event.kind in ("accepted", "rejected", "empty-batch"):
                        handle.cancel(reason="mid-run test")
                        return

            watcher = asyncio.ensure_future(watch())
            with pytest.raises(SessionCancelled, match="mid-run test"):
                await handle.run_to_completion()
            await watcher
            state = handle._state
            # No staged-but-uncommitted tail survives cancellation.
            builder = state.active_builder
            assert builder.n_rows == builder.checkpoint()
            assert state.active.n == builder.n_rows
            return handle.inspect()

        view = run(main())
        assert view.status == "cancelled"
        assert view.cancel_reason == "mid-run test"

    def test_cancel_before_start_settles_immediately(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=4))
            assert handle.cancel(reason="early") is True
            assert handle.status == "cancelled"
            with pytest.raises(SessionCancelled, match="early"):
                await handle.result()

        run(main())

    def test_cancel_releases_memory_grant(self):
        async def main():
            service = EditService(memory_budget_mb=32.0, default_session_mb=32.0)
            first = service.submit(make_spec(seed=4, tau=50))
            second = service.submit(make_spec(seed=5))
            task = asyncio.ensure_future(first.run_to_completion())
            while first._grant is None:
                await asyncio.sleep(0.001)
            assert service.pool.reserved_mb == 32.0
            first.cancel(reason="free the pool")
            with pytest.raises(SessionCancelled):
                await task
            result = await second.run_to_completion()
            assert service.pool.reserved_mb == 0.0
            assert service.pool.peak_reserved_mb == 32.0
            return result

        assert run(main()).iterations > 0

    def test_cancel_twice_is_noop(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=4))
            assert handle.cancel() is True
            assert handle.cancel() is False

        run(main())


class TestTimeout:
    def test_timeout_cancels_with_reason(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=6, tau=200), timeout=0.01)
            with pytest.raises(SessionCancelled, match="timeout"):
                await handle.run_to_completion()
            return handle.inspect()

        view = run(main())
        assert view.status == "cancelled"
        assert view.cancel_reason == "timeout"

    def test_generous_timeout_completes(self):
        async def main():
            service = EditService()
            handle = service.submit(make_spec(seed=6, tau=2), timeout=60.0)
            return await handle.run_to_completion()

        assert run(main()).iterations == 2


class TestAdmissionIntegration:
    def test_submission_queue_backpressure(self):
        async def main():
            service = EditService(
                memory_budget_mb=16.0,
                default_session_mb=16.0,
                max_pending=1,
            )
            service.submit(make_spec(seed=7))  # granted
            service.submit(make_spec(seed=8))  # queued
            with pytest.raises(AdmissionError, match="queue full"):
                service.submit(make_spec(seed=9))
            assert service.admission.n_rejected == 1

        run(main())

    def test_oversized_session_rejected_outright(self):
        async def main():
            service = EditService(memory_budget_mb=16.0)
            spec = make_spec(seed=7, max_resident_mb=64.0)
            with pytest.raises(AdmissionError, match="never"):
                service.submit(spec)

        run(main())

    def test_own_budget_respected_and_caller_not_mutated(self):
        async def main():
            service = EditService(memory_budget_mb=64.0, default_session_mb=8.0)
            spec = make_spec(seed=7, max_resident_mb=24.0)
            handle = service.submit(spec)
            assert handle.inspect().budget_mb == 24.0
            plain = make_spec(seed=8)
            before = dict(plain._config_kwargs)
            handle2 = service.submit(plain)
            assert handle2.inspect().budget_mb == 8.0
            assert plain._config_kwargs == before  # caller's spec untouched
            await service.close()

        run(main())

    def test_duplicate_name_rejected(self):
        async def main():
            service = EditService()
            service.submit(make_spec(seed=7), name="dup")
            with pytest.raises(ValueError, match="already in use"):
                service.submit(make_spec(seed=8), name="dup")

        run(main())


class TestServiceLifecycle:
    def test_stats_and_counters(self):
        async def main():
            service = EditService(memory_budget_mb=64.0)
            handles = [service.submit(make_spec(seed=10 + i)) for i in range(3)]
            handles[2].cancel(reason="stats test")
            await asyncio.gather(
                *(h.run_to_completion() for h in handles),
                return_exceptions=True,
            )
            return service.stats()

        stats = run(main())
        assert stats["n_submitted"] == 3
        assert stats["n_completed"] == 2
        assert stats["n_cancelled"] == 1
        assert stats["steps_total"] > 0
        assert stats["p99_step_ms"] >= stats["p50_step_ms"] > 0
        assert stats["peak_reserved_mb"] <= stats["pool_mb"]

    def test_mixed_priority_fleet_stays_within_shared_budget(self):
        n_sessions = 8

        async def main():
            service = EditService(
                policy="weighted-priority",
                memory_budget_mb=16.0 * n_sessions,
                default_session_mb=16.0,
            )
            handles = [
                service.submit(make_spec(seed=30 + i), priority=1.0 + (i % 3))
                for i in range(n_sessions)
            ]
            await asyncio.gather(*(h.run_to_completion() for h in handles))
            return service.stats(), service.pool.reserved_mb

        stats, reserved_after = run(main())
        assert stats["n_completed"] == n_sessions
        assert stats["pool_mb"] == 16.0 * n_sessions
        assert 0 < stats["peak_reserved_mb"] <= stats["pool_mb"]
        assert reserved_after == 0

    def test_close_cancels_live_sessions(self):
        async def main():
            async with EditService() as service:
                handle = service.submit(make_spec(seed=20, tau=500))
                task = asyncio.ensure_future(handle.run_to_completion())
                await asyncio.sleep(0.02)
            assert handle.done
            with pytest.raises(SessionCancelled, match="service-shutdown"):
                await task
            return service.stats()

        stats = run(main())
        assert stats["n_cancelled"] == 1

    def test_engine_failure_surfaces_as_failed(self):
        async def main():
            service = EditService()
            spec = make_spec(seed=21)
            handle = service.submit(spec)
            handle._spec._algorithm = None  # force build_state to blow up
            with pytest.raises(ValueError, match="algorithm"):
                await handle.run_to_completion()
            return handle.status, service.stats()["n_failed"]

        status, n_failed = run(main())
        assert status == "failed"
        assert n_failed == 1
