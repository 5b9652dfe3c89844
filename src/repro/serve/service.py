"""Async multi-tenant edit service: many sessions, one process.

:class:`EditService` turns :class:`~repro.engine.session.EditSession`
from a library object into a served workload::

    service = EditService(memory_budget_mb=256.0, policy="weighted-priority")
    handle = service.submit(session, name="tenant-a", priority=2.0)
    async for event in handle.events():
        print(event.iteration, event.kind)
    result = await handle.result()

Execution is *quantum*-granular: one quantum is one engine
``initialize`` (setup stages), one loop ``step``, or one ``finalize``.
Every quantum runs in a worker thread via :func:`asyncio.to_thread`
(the engine is numpy-bound, so the event loop stays responsive), and
the :class:`~repro.serve.scheduler.SessionScheduler` decides which
runnable session gets each free slot.  Between quanta a session holds
no locks and no thread, which is what makes cancellation and timeouts
cooperative and cheap.

**Parity contract.**  A served session calls exactly the same engine
entry points, in the same order, on the same state as
``EditSession.run()`` — ``initialize``, ``step`` until ``state.done``,
``finalize`` — and all randomness lives in per-session state.  Served
results are therefore bit-identical to serial ones, regardless of how
many sessions interleave; ``tests/serve/test_serve_parity.py`` pins
this.
"""

from __future__ import annotations

import asyncio
import copy
import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, AsyncIterator

from repro.engine.session import EditSession
from repro.engine.state import FroteResult, ProgressEvent
from repro.feedback.sources import QueueFeedbackSource, coerce_event
from repro.serve.admission import AdmissionController, MemoryGrant, MemoryPool
from repro.serve.scheduler import SchedulingPolicy, SessionScheduler, SessionTicket

__all__ = [
    "EditService",
    "SessionHandle",
    "SessionView",
    "SessionCancelled",
    "ServeError",
]

#: Session lifecycle states (terminal: ``done`` / ``failed`` / ``cancelled``).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
_TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: Quantum kinds returned by the internal advance step.
_SETUP = "setup"
_STEP = "step"
_FINALIZE = "finalize"


class ServeError(RuntimeError):
    """Misuse of the serving API (double-drive, stepping a finished session)."""


class SessionCancelled(ServeError):
    """Raised from ``result()``/``step()`` when a session was cancelled.

    Attributes
    ----------
    name:
        The session's service-unique name.
    reason:
        Why it was cancelled (``"timeout"``, caller-supplied reason, ...).
    """

    def __init__(self, name: str, reason: str) -> None:
        super().__init__(f"session {name!r} cancelled: {reason}")
        self.name = name
        self.reason = reason


class _TimedOut(Exception):
    """Internal: the session's deadline passed while waiting for a slot."""


@dataclass(frozen=True)
class SessionView:
    """Immutable point-in-time snapshot of a served session.

    Published at quantum boundaries only (never mid-step), so every
    field is internally consistent.

    Attributes
    ----------
    name:
        Service-unique session name.
    status:
        One of ``queued`` / ``running`` / ``done`` / ``failed`` /
        ``cancelled``.
    iteration:
        Engine loop iterations completed so far.
    n_added:
        Synthetic rows accepted into the dataset so far.
    best_loss:
        Best objective value seen (``inf`` before setup).
    quanta_done:
        Scheduler quanta completed (setup + steps + finalize).
    steps_done:
        Loop-step quanta completed (what latency metrics count).
    events_dropped:
        Progress events discarded because the session's bounded event
        queue overflowed (drop-oldest).
    priority:
        Scheduling priority as submitted.
    budget_mb:
        Per-session resident budget carved from the service pool
        (``None`` when the service has no memory pool).
    cancel_reason:
        Why the session was cancelled, if it was.
    """

    name: str
    status: str
    iteration: int = 0
    n_added: int = 0
    best_loss: float = float("inf")
    quanta_done: int = 0
    steps_done: int = 0
    events_dropped: int = 0
    priority: float = 1.0
    budget_mb: float | None = None
    cancel_reason: str | None = None


class SessionHandle:
    """Client-side handle for one served session.

    Obtained from :meth:`EditService.submit`; never constructed
    directly.  A handle supports two mutually compatible driving modes:

    * ``await handle.run_to_completion()`` — the service drives the
      session to the end (idempotent; subsequent calls await the same
      result), or
    * ``await handle.step()`` — the caller advances one quantum at a
      time, inspecting between quanta.

    Either way :meth:`events` streams the session's
    :class:`~repro.engine.state.ProgressEvent` s and :meth:`result`
    awaits the final :class:`~repro.engine.state.FroteResult`.
    """

    def __init__(
        self,
        service: "EditService",
        spec: EditSession,
        *,
        name: str,
        priority: float,
        timeout: float | None,
        required_mb: float,
        admission_future: "asyncio.Future[MemoryGrant]",
    ) -> None:
        self._service = service
        self._spec = spec
        self.name = name
        self.priority = priority
        self._required_mb = required_mb
        self._ticket = service.scheduler.register(
            SessionTicket(name=name, priority=priority)
        )
        self._loop = asyncio.get_running_loop()
        self._deadline = (
            None if timeout is None else self._loop.time() + timeout
        )
        self._admission_future = admission_future
        self._grant: MemoryGrant | None = None

        self.status = QUEUED
        self._state: Any = None
        self._engine: Any = None
        self._result_value: FroteResult | None = None
        self._in_advance = False
        self._driver: asyncio.Task | None = None
        self._stepping = False
        self._cancel_reason: str | None = None
        self._result_future: asyncio.Future = self._loop.create_future()
        # Failed sessions nobody awaits must not warn at GC time.
        self._result_future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )

        # Live feedback: feed(...) stages events on the loop thread; they
        # are flushed into the queue source at the next quantum boundary
        # (never mid-quantum), where the engine's feedback stage drains
        # them.  Attached before the state is built so the engine chain
        # includes the feedback stage from the start.
        self._feed_source = QueueFeedbackSource(name=f"feed:{name}")
        self._feed_buffer: list[Any] = []
        spec.with_feedback(self._feed_source)

        self._journal: Any = None
        self._events: deque[ProgressEvent] = deque()
        self._events_dropped = 0
        self._event_signal = asyncio.Event()
        self._view = SessionView(
            name=name, status=QUEUED, priority=priority,
            budget_mb=required_mb if service.pool is not None else None,
        )

    # ------------------------------------------------------------------ #
    # Introspection.
    @property
    def done(self) -> bool:
        """Whether the session reached a terminal state."""
        return self.status in _TERMINAL

    def inspect(self) -> SessionView:
        """Return the latest quantum-boundary :class:`SessionView`."""
        return self._view

    def _publish_view(self) -> None:
        state = self._state
        self._view = SessionView(
            name=self.name,
            status=self.status,
            iteration=0 if state is None else state.iteration,
            n_added=0 if state is None else state.n_added,
            best_loss=float("inf") if state is None else state.best_loss,
            quanta_done=self._ticket.quanta_done,
            steps_done=self._ticket.steps_done,
            events_dropped=self._events_dropped,
            priority=self.priority,
            budget_mb=(
                self._required_mb if self._service.pool is not None else None
            ),
            cancel_reason=self._cancel_reason,
        )

    # ------------------------------------------------------------------ #
    # Event streaming.
    def _thread_listener(self, event: ProgressEvent) -> None:
        """Forward an engine event from the worker thread to the loop."""
        try:
            self._loop.call_soon_threadsafe(self._publish_event, event)
        except RuntimeError:  # loop already closed (service torn down)
            pass

    def _publish_event(self, event: ProgressEvent) -> None:
        if len(self._events) >= self._service.event_queue_size:
            self._events.popleft()
            self._events_dropped += 1
        self._events.append(event)
        self._event_signal.set()

    async def events(self) -> AsyncIterator[ProgressEvent]:
        """Stream the session's progress events as they happen.

        Yields
        ------
        ProgressEvent
            Engine events (``started`` / ``accepted`` / ``rejected`` /
            ``empty-batch`` / ``finished``) in order.  The queue is
            bounded (``EditService(event_queue_size=...)``); a slow
            consumer loses the *oldest* events, counted in
            :attr:`SessionView.events_dropped`.  The iterator ends once
            the session is terminal and the queue is drained.
        """
        while True:
            while self._events:
                yield self._events.popleft()
            if self.done:
                return
            self._event_signal.clear()
            await self._event_signal.wait()

    # ------------------------------------------------------------------ #
    # Live feedback injection.
    def feed(self, *items: Any, source: str = "client") -> int:
        """Inject feedback into the running session.

        Accepts :class:`~repro.feedback.sources.RuleProposal` /
        :class:`~repro.feedback.sources.RuleVerdict` events, bare
        :class:`~repro.rules.rule.FeedbackRule` objects, rule strings
        (parsed against the session dataset's schema), and — since the
        schema-evolution arc — :class:`~repro.data.evolution.SchemaDelta`
        / :class:`~repro.data.evolution.Migration` objects, which migrate
        the live session's feature space at the next iteration boundary.
        A rule string referencing a column that has not landed yet is
        deferred (parked) rather than rejected, and applies once its
        migration arrives.  Items are staged immediately but only become
        visible to the engine at the next quantum boundary — never
        mid-quantum — so served runs keep the same boundary-granular
        determinism as ``EditSession`` feedback, and the applied deltas
        land in the session's journal like any other feedback.

        Parameters
        ----------
        items:
            Events, rules, or rule strings to stage.
        source:
            Attributed source name for events that don't carry one.

        Returns
        -------
        int
            Number of events staged.

        Raises
        ------
        ServeError
            If the session already reached a terminal state.
        """
        if self.done:
            raise ServeError(
                f"cannot feed session {self.name!r}: already {self.status}"
            )
        events = []
        for item in items:
            if isinstance(item, str):
                from repro.feedback.sources import parse_rule_or_defer

                dataset = self._spec.dataset
                item = parse_rule_or_defer(
                    item, dataset.X.schema, dataset.label_names
                )
            events.append(coerce_event(item, source=source))
        self._feed_buffer.extend(events)
        self._service._journal_event(
            "feedback-staged",
            {"name": self.name, "source": source, "count": len(events)},
        )
        return len(events)

    def _flush_feed(self) -> None:
        """Move staged feedback into the queue source (loop thread, at a
        quantum boundary — the engine is guaranteed not to be polling)."""
        if not self._feed_buffer:
            return
        staged, self._feed_buffer = self._feed_buffer, []
        self._feed_source.push(*staged)
        self._service._journal_event(
            "feedback-flushed", {"name": self.name, "count": len(staged)}
        )

    # ------------------------------------------------------------------ #
    # The quantum.
    def _advance(self) -> str:
        """Run one engine quantum (worker thread). Returns the kind."""
        if self._state is None:
            state = self._spec.build_state()
            state.listeners.append(self._thread_listener)
            journal_path = self._service._session_journal_path(
                self.name, state.config
            )
            if journal_path is not None:
                from repro.journal.writer import SessionJournal

                self._journal = SessionJournal(
                    journal_path, meta={"name": self.name}
                )
                # Attached after the forwarding listener so clients see
                # each event before it is made durable.
                self._journal.attach(state)
            engine = self._spec.build_engine()
            engine.initialize(state)
            self._state = state
            self._engine = engine
            return _SETUP
        if not self._state.done:
            self._engine.step(self._state)
            return _STEP
        self._result_value = self._engine.finalize(self._state)
        return _FINALIZE

    def _remaining(self) -> float | None:
        if self._deadline is None:
            return None
        return self._deadline - self._loop.time()

    async def _acquire_turn(self) -> None:
        """Wait for admission, then for a scheduler slot (deadline-aware)."""
        remaining = self._remaining()
        if remaining is not None and remaining <= 0:
            raise _TimedOut
        if self._grant is None:
            try:
                self._grant = await asyncio.wait_for(
                    asyncio.shield(self._admission_future), remaining
                )
            except asyncio.TimeoutError:
                raise _TimedOut from None
            remaining = self._remaining()
            if remaining is not None and remaining <= 0:
                raise _TimedOut
        try:
            await asyncio.wait_for(
                self._service.scheduler.acquire(self._ticket), remaining
            )
        except asyncio.TimeoutError:
            raise _TimedOut from None

    async def _quantum(self) -> str:
        """Acquire a slot, run one quantum off-loop, publish the view."""
        await self._acquire_turn()
        if self.status == QUEUED:
            self.status = RUNNING
        self._flush_feed()
        self._in_advance = True
        started = time.perf_counter()
        try:
            kind = await asyncio.to_thread(self._advance)
        finally:
            self._in_advance = False
            self._service.scheduler.release(self._ticket)
        elapsed = time.perf_counter() - started
        if kind == _STEP:
            self._ticket.steps_done += 1
            self._service._step_latencies.append(elapsed)
        self._service._journal_event(
            "quantum",
            {
                "name": self.name,
                "kind": kind,
                "seconds": elapsed,
                "iteration": 0 if self._state is None else self._state.iteration,
            },
        )
        self._publish_view()
        return kind

    # ------------------------------------------------------------------ #
    # Terminal transitions (event-loop thread; each fires at most once).
    def _settle(self, status: str) -> None:
        self.status = status
        if (
            self._grant is None
            and self._admission_future.done()
            and not self._admission_future.cancelled()
            and self._admission_future.exception() is None
        ):
            # Granted at submit time but never picked up by a quantum.
            self._grant = self._admission_future.result()
        if self._grant is not None:
            self._service.admission.release(self._grant)
            self._grant = None
        elif not self._admission_future.done():
            self._admission_future.cancel()
        if self._journal is not None:
            try:
                self._journal.close()
                self._service.journal_io_seconds += self._journal.io_seconds
            except Exception:
                self._service.journal_errors += 1
            self._journal = None
        self._publish_view()
        self._event_signal.set()  # wake events() so it can finish draining
        self._service._on_terminal(self)

    def _settle_done(self) -> None:
        self._settle(DONE)
        self._result_future.set_result(self._result_value)

    def _settle_failed(self, exc: BaseException) -> None:
        if self.done:
            return
        self._settle(FAILED)
        self._result_future.set_exception(exc)

    def _settle_cancelled(self) -> None:
        if self.done:
            return
        self._rollback_staged()
        self._settle(CANCELLED)
        self._result_future.set_exception(
            SessionCancelled(self.name, self._cancel_reason or "cancelled")
        )

    def _rollback_staged(self) -> None:
        """Drop staged-but-uncommitted candidate rows after cancellation.

        The acceptance stage stages candidate rows on the active builder
        before deciding; a session cancelled between quanta may hold such
        a staged tail.  The builder's committed length *is* its
        checkpoint, so rolling back to it leaves exactly the accepted
        dataset — same machinery the engine uses to reject a batch.
        """
        state = self._state
        if state is None or state.active_builder is None:
            return
        builder = state.active_builder
        builder.rollback(builder.checkpoint())

    # ------------------------------------------------------------------ #
    # Driving.
    async def step(self) -> SessionView:
        """Advance the session by exactly one quantum.

        Returns
        -------
        SessionView
            The snapshot after the quantum.

        Raises
        ------
        ServeError
            If the service is already auto-driving this session, a
            previous ``step()`` is still in flight, or the session
            already finished.
        SessionCancelled
            If the session was cancelled or its timeout elapsed.
        """
        if self._driver is not None:
            raise ServeError(
                f"session {self.name!r} is auto-driven by run_to_completion(); "
                "manual step() is not available"
            )
        if self._stepping:
            raise ServeError(f"session {self.name!r} already has a step in flight")
        if self.done:
            if self.status == CANCELLED:
                raise SessionCancelled(self.name, self._cancel_reason or "cancelled")
            raise ServeError(f"session {self.name!r} already finished ({self.status})")
        if self._cancel_reason is not None:
            self._settle_cancelled()
            raise SessionCancelled(self.name, self._cancel_reason)
        self._stepping = True
        try:
            kind = await self._quantum()
        except _TimedOut:
            self._cancel_reason = self._cancel_reason or "timeout"
            self._settle_cancelled()
            raise SessionCancelled(self.name, self._cancel_reason) from None
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._settle_failed(exc)
            raise
        finally:
            self._stepping = False
        if kind == _FINALIZE:
            self._settle_done()
        elif self._cancel_reason is not None:
            # Cancelled while the quantum ran; settle at the boundary.
            self._settle_cancelled()
            raise SessionCancelled(self.name, self._cancel_reason)
        return self._view

    async def run_to_completion(self) -> FroteResult:
        """Drive the session to its terminal state and return the result.

        Idempotent: the first call starts the driver task, later calls
        (and :meth:`result`) await the same outcome.  May follow manual
        :meth:`step` calls — driving continues from the current quantum.

        Returns
        -------
        FroteResult
            Identical (bit-for-bit) to what ``EditSession.run()`` would
            have returned for the same spec.
        """
        if self._driver is None and not self.done:
            if self._stepping:
                raise ServeError(
                    f"session {self.name!r} has a manual step in flight"
                )
            self._driver = self._loop.create_task(
                self._drive(), name=f"serve-{self.name}"
            )
        return await self.result()

    async def _drive(self) -> None:
        try:
            while not self.done:
                if self._cancel_reason is not None:
                    self._settle_cancelled()
                    return
                kind = await self._quantum()
                if kind == _FINALIZE:
                    self._settle_done()
                    return
        except _TimedOut:
            self._cancel_reason = self._cancel_reason or "timeout"
            self._settle_cancelled()
        except asyncio.CancelledError:
            self._settle_cancelled()
        except Exception as exc:  # engine failure — surface via result()
            self._settle_failed(exc)

    async def result(self) -> FroteResult:
        """Await the session's final result.

        Raises
        ------
        SessionCancelled
            If the session was cancelled (or timed out).
        Exception
            Whatever the engine raised, if the session failed.
        """
        return await asyncio.shield(self._result_future)

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cooperative cancellation.

        An in-flight engine quantum is never interrupted — cancellation
        takes effect at the next quantum boundary, where the session
        rolls back any staged-but-uncommitted rows, releases its memory
        grant, and resolves :meth:`result` with
        :class:`SessionCancelled`.

        Parameters
        ----------
        reason:
            Recorded in :attr:`SessionView.cancel_reason` and the
            raised :class:`SessionCancelled`.

        Returns
        -------
        bool
            ``True`` if this call initiated cancellation, ``False`` if
            the session was already terminal or already cancelling.
        """
        if self.done or self._cancel_reason is not None:
            return False
        self._cancel_reason = reason
        if self._in_advance or self._stepping:
            return True  # settles at the quantum boundary
        if self._driver is not None and not self._driver.done():
            self._driver.cancel()
        else:
            self._settle_cancelled()
        return True


class EditService:
    """Asyncio facade serving many concurrent edit sessions.

    Parameters
    ----------
    max_concurrent_steps:
        Engine quanta in flight at once (worker threads); defaults to
        :func:`~repro.serve.scheduler.default_max_concurrent`.
    policy:
        Scheduling policy name (``"round-robin"``,
        ``"weighted-priority"``, or anything registered in
        :data:`~repro.serve.scheduler.SCHEDULING_POLICIES`) or a policy
        instance.
    memory_budget_mb:
        Service-wide resident budget.  When set, each admitted session
        carves a slice out of the shared :class:`MemoryPool` and runs
        with ``FroteConfig(max_resident_mb=<slice>)``, so the data
        layer's out-of-core spill enforces per-session what the pool
        accounts globally.  ``None`` disables byte accounting.
    default_session_mb:
        Slice for sessions that don't set their own ``max_resident_mb``;
        defaults to ``memory_budget_mb / 8``.
    max_active_sessions:
        Sessions admitted concurrently (holding grants).
    max_pending:
        Bounded submission queue; :meth:`submit` raises
        :class:`AdmissionError` beyond it.
    event_queue_size:
        Per-session bounded event queue capacity (drop-oldest).
    journal_dir:
        Opt into durable serving journals: each served session writes
        its own session journal at ``journal_dir/<name>`` (same format
        and replay tooling as ``EditSession.journaled(...)``), and the
        service itself appends admission decisions, per-quantum grants
        with wall times, and terminal outcomes to
        ``journal_dir/_service`` (see :mod:`repro.journal`).  Sessions
        whose own config carries ``journal_dir`` are journaled there
        even when this is unset.

    Notes
    -----
    The service is loop-affine: construct and use it inside a running
    event loop (``asyncio.run(main())``).
    """

    def __init__(
        self,
        *,
        max_concurrent_steps: int | None = None,
        policy: str | SchedulingPolicy = "round-robin",
        memory_budget_mb: float | None = None,
        default_session_mb: float | None = None,
        max_active_sessions: int = 64,
        max_pending: int = 64,
        event_queue_size: int = 256,
        journal_dir: str | None = None,
    ) -> None:
        if event_queue_size < 1:
            raise ValueError(
                f"event_queue_size must be >= 1, got {event_queue_size}"
            )
        self.pool = (
            None if memory_budget_mb is None else MemoryPool(float(memory_budget_mb))
        )
        if default_session_mb is None and self.pool is not None:
            default_session_mb = self.pool.total_mb / 8.0
        self.default_session_mb = default_session_mb
        self.admission = AdmissionController(
            pool=self.pool,
            max_active=max_active_sessions,
            max_pending=max_pending,
        )
        self.scheduler = SessionScheduler(
            max_concurrent=max_concurrent_steps, policy=policy
        )
        self.event_queue_size = event_queue_size
        self.sessions: dict[str, SessionHandle] = {}
        self._names = itertools.count()
        self._step_latencies: list[float] = []
        self.n_submitted = 0
        self.n_completed = 0
        self.n_failed = 0
        self.n_cancelled = 0
        self.journal_dir = journal_dir
        self._journal = None
        self.journal_errors = 0
        #: Wall seconds spent on journal write/flush/fsync across every
        #: settled session journal plus the service journal — the number
        #: the journal-overhead bench compares against serving time.
        self.journal_io_seconds = 0.0
        if journal_dir is not None:
            from pathlib import Path

            from repro.journal.writer import JournalWriter

            self._journal = JournalWriter(
                Path(journal_dir) / "_service",
                meta={"journal_kind": "service"},
            )

    # ------------------------------------------------------------------ #
    def _journal_event(self, kind: str, data: dict) -> None:
        """Append service telemetry (event-loop thread only).

        Telemetry must never take down serving: failures are counted in
        :attr:`journal_errors` and swallowed.  These records are flushed
        but not fsynced — they are observability, not resume state.
        """
        if self._journal is None or self._journal.closed:
            return
        try:
            self._journal.append(kind, data)
        except Exception:
            self.journal_errors += 1

    def _session_journal_path(self, name: str, config: Any):
        """Where a session's own journal lives, or ``None``."""
        from pathlib import Path

        if self.journal_dir is not None:
            return Path(self.journal_dir) / name
        if getattr(config, "journal_dir", None):
            return Path(config.journal_dir) / (config.journal_name or name)
        return None

    # ------------------------------------------------------------------ #
    def submit(
        self,
        session: EditSession,
        *,
        name: str | None = None,
        priority: float = 1.0,
        timeout: float | None = None,
    ) -> SessionHandle:
        """Admit an edit session for serving.

        Synchronous and fast: admission bookkeeping happens before this
        returns (granted or parked in the bounded FIFO queue), but no
        engine work runs yet.  The caller's ``session`` object is not
        mutated — the service drives a shallow working copy, configured
        with the carved per-session memory budget when the service has
        a pool.

        Parameters
        ----------
        session:
            The :class:`~repro.engine.session.EditSession` spec to run.
        name:
            Service-unique session name (auto-generated when omitted).
        priority:
            Scheduling priority (only meaningful under priority-aware
            policies such as ``"weighted-priority"``).
        timeout:
            Wall-clock seconds from submission; past it the session is
            cancelled with reason ``"timeout"`` at the next quantum
            boundary.

        Returns
        -------
        SessionHandle
            Handle for stepping, streaming, inspecting, cancelling.

        Raises
        ------
        AdmissionError
            When the submission queue is full or the session's budget
            exceeds the whole pool.
        ValueError
            On a duplicate session name.
        """
        if name is None:
            name = f"session-{next(self._names)}"
        if name in self.sessions:
            raise ValueError(f"session name {name!r} already in use")
        spec, required_mb = self._carve(session)
        admission_future = self.admission.request(
            required_mb if self.pool is not None else 0.0
        )
        handle = SessionHandle(
            self,
            spec,
            name=name,
            priority=priority,
            timeout=timeout,
            required_mb=required_mb,
            admission_future=admission_future,
        )
        self.sessions[name] = handle
        self.n_submitted += 1
        if self._journal is not None:
            self._journal_event(
                "session-submitted",
                {"name": name, "priority": priority, "required_mb": required_mb},
            )
            admission_future.add_done_callback(
                lambda fut, name=name: self._journal_admission(name, fut)
            )
        return handle

    def _journal_admission(self, name: str, fut: "asyncio.Future") -> None:
        if fut.cancelled():
            self._journal_event("admission-cancelled", {"name": name})
        elif fut.exception() is not None:
            self._journal_event(
                "admission-rejected",
                {"name": name, "error": str(fut.exception())},
            )
        else:
            self._journal_event(
                "admission-granted", {"name": name, "mb": fut.result().mb}
            )

    def _carve(self, session: EditSession) -> tuple[EditSession, float]:
        """Build the working copy of ``session`` with its budget slice."""
        spec = copy.copy(session)
        spec._config_kwargs = dict(session._config_kwargs)
        spec._listeners = list(session._listeners)
        spec._rules = list(session._rules)
        # The handle attaches its own feed source; container fields must
        # not be shared with the caller's session object.
        spec._feedback_sources = list(session._feedback_sources)
        spec._feedback_policy_kwargs = dict(session._feedback_policy_kwargs)
        spec._scheduled_rules = {
            it: list(rules) for it, rules in session._scheduled_rules.items()
        }
        own = spec._config_kwargs.get("max_resident_mb")
        if self.pool is None:
            return spec, float(own) if own is not None else 0.0
        required = float(own if own is not None else self.default_session_mb)
        if own is None:
            spec.out_of_core(required)
        return spec, required

    def _on_terminal(self, handle: SessionHandle) -> None:
        if handle.status == DONE:
            self.n_completed += 1
        elif handle.status == FAILED:
            self.n_failed += 1
        elif handle.status == CANCELLED:
            self.n_cancelled += 1
        self._journal_event(
            "session-terminal",
            {
                "name": handle.name,
                "status": handle.status,
                "iteration": handle._view.iteration,
                "steps_done": handle._view.steps_done,
                "cancel_reason": handle._cancel_reason,
            },
        )

    # ------------------------------------------------------------------ #
    async def run_all(self) -> dict[str, FroteResult | BaseException]:
        """Drive every non-terminal session and gather outcomes by name.

        Returns
        -------
        dict
            ``{name: FroteResult}`` for completed sessions; failed or
            cancelled sessions map to the raised exception instead.
        """
        handles = [h for h in self.sessions.values()]
        outcomes = await asyncio.gather(
            *(h.run_to_completion() for h in handles), return_exceptions=True
        )
        return dict(zip((h.name for h in handles), outcomes))

    async def close(self) -> None:
        """Cancel all live sessions and wait for them to settle."""
        for handle in list(self.sessions.values()):
            if not handle.done:
                handle.cancel(reason="service-shutdown")
        drivers = [
            h._driver
            for h in self.sessions.values()
            if h._driver is not None and not h._driver.done()
        ]
        if drivers:
            await asyncio.gather(*drivers, return_exceptions=True)
        for handle in self.sessions.values():
            if not handle.done:
                handle._settle_cancelled()
        if self._journal is not None and not self._journal.closed:
            try:
                self._journal.append(
                    "service-closed", {"stats": self.stats()}, sync=True
                )
            except Exception:
                self.journal_errors += 1
            self._journal.close()
            self.journal_io_seconds += self._journal.io_seconds

    async def __aenter__(self) -> "EditService":
        """Enter the service context."""
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        """Close the service on context exit."""
        await self.close()

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Service-level counters and step-latency percentiles.

        Returns
        -------
        dict
            Keys: ``n_submitted`` / ``n_completed`` / ``n_failed`` /
            ``n_cancelled`` / ``n_rejected``, ``steps_total``,
            ``p50_step_ms`` / ``p99_step_ms``, and (with a pool)
            ``pool_mb`` / ``peak_reserved_mb``.
        """
        stats: dict[str, Any] = {
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_failed": self.n_failed,
            "n_cancelled": self.n_cancelled,
            "n_rejected": self.admission.n_rejected,
            "steps_total": len(self._step_latencies),
            "p50_step_ms": _percentile_ms(self._step_latencies, 50.0),
            "p99_step_ms": _percentile_ms(self._step_latencies, 99.0),
        }
        if self.pool is not None:
            stats["pool_mb"] = self.pool.total_mb
            stats["peak_reserved_mb"] = self.pool.peak_reserved_mb
        return stats


def _percentile_ms(latencies_s: list[float], q: float) -> float:
    """Return the ``q``-th percentile of ``latencies_s`` in milliseconds."""
    if not latencies_s:
        return 0.0
    import numpy as np

    return float(np.percentile(np.asarray(latencies_s), q) * 1e3)
