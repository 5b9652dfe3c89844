"""Cooperative stage-granular scheduling of concurrent edit sessions.

One process, many sessions: each session advances in *quanta* (one
``EditSession.start()``, one ``step``, or one ``finalize``), every quantum
runs in a worker thread off the event loop, and at most
``max_concurrent`` quanta are in flight at once.  Which runnable
session gets the next free slot is a *policy* decision, pluggable
through the same registry idiom as the engine's strategy families::

    from repro.serve import register_policy

    @register_policy("shortest-first")
    class ShortestFirstPolicy:
        def pick(self, waiting, now):
            return min(waiting, key=lambda t: t.steps_done)

Built-ins:

* ``"round-robin"`` — strict turn-taking: the waiting session granted
  least recently goes next.
* ``"weighted-priority"`` — highest effective priority wins, where
  effective priority is the submitted priority plus a fairness-aging
  term that grows while a session waits, so low-priority sessions are
  delayed but never starved.

The scheduler itself is a turnstile, not a task: sessions call
:meth:`SessionScheduler.acquire` before a quantum and
:meth:`SessionScheduler.release` after, and dispatch happens inline on
the event loop thread whenever a slot frees or a waiter arrives — no
background coroutine, no locks.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Protocol, Sequence, runtime_checkable

from repro.engine.registry import Registry

#: Scheduling policies, registered by name like every other strategy
#: family (``EditService(policy="weighted-priority")`` resolves here).
SCHEDULING_POLICIES = Registry("scheduling policy")


def register_policy(name: str, obj=None, *, overwrite: bool = False):
    """Register a scheduling policy by name (decorator form)."""
    return SCHEDULING_POLICIES.register(name, obj, overwrite=overwrite)


def default_max_concurrent() -> int:
    """Default in-flight quantum cap: leave headroom on small machines."""
    return max(2, min(8, (os.cpu_count() or 2) - 1))


@dataclass
class SessionTicket:
    """One session's scheduling identity and fairness bookkeeping.

    Policies read these fields; the scheduler maintains them.  All
    "times" are quantum sequence numbers (one global counter, bumped
    per grant), which keeps policies deterministic and clock-free.
    """

    name: str
    priority: float = 1.0
    #: Monotonic submission order (set by the scheduler; ties break on it).
    arrival: int = 0
    #: Sequence number of the last grant (-1 = never granted).
    last_granted: int = -1
    #: Sequence number at which the ticket entered the waiting set.
    waiting_since: int = 0
    #: Completed quanta (setup + steps + finalize).
    quanta_done: int = 0
    #: Completed *loop-step* quanta (what latency metrics count).
    steps_done: int = 0


@runtime_checkable
class SchedulingPolicy(Protocol):
    """Pick which waiting session receives the next free slot."""

    def pick(self, waiting: Sequence[SessionTicket], now: int) -> SessionTicket:
        """Choose one ticket from the non-empty ``waiting`` sequence.

        Parameters
        ----------
        waiting:
            Tickets currently waiting for a slot (never empty).
        now:
            The current quantum sequence number, for aging terms.
        """
        ...


@register_policy("round-robin")
class RoundRobinPolicy:
    """Strict turn-taking: least-recently-granted first, arrival order ties."""

    def pick(self, waiting: Sequence[SessionTicket], now: int) -> SessionTicket:
        """Pick the waiting ticket granted least recently."""
        return min(waiting, key=lambda t: (t.last_granted, t.arrival))


@register_policy("weighted-priority")
class WeightedPriorityPolicy:
    """Priority scheduling with fairness aging.

    Effective priority is ``priority + aging_rate * quanta_waited``:
    a session's claim grows the longer it waits, so high-priority
    sessions dominate short-term but cannot starve low-priority ones.

    Parameters
    ----------
    aging_rate:
        Priority units gained per quantum spent waiting.  ``0`` is pure
        strict priority (starvation possible — only sensible for tests).
    """

    def __init__(self, aging_rate: float = 0.25) -> None:
        if aging_rate < 0:
            raise ValueError(f"aging_rate must be >= 0, got {aging_rate}")
        self.aging_rate = aging_rate

    def effective_priority(self, ticket: SessionTicket, now: int) -> float:
        """The aged priority of ``ticket`` at quantum ``now``."""
        return ticket.priority + self.aging_rate * max(0, now - ticket.waiting_since)

    def pick(self, waiting: Sequence[SessionTicket], now: int) -> SessionTicket:
        """Pick the highest effective priority; fall back round-robin."""
        return max(
            waiting,
            key=lambda t: (
                self.effective_priority(t, now),
                -t.last_granted,
                -t.arrival,
            ),
        )


@dataclass
class _Waiting:
    """A ticket parked in the scheduler with its wake-up future."""

    ticket: SessionTicket
    future: asyncio.Future = field(default_factory=asyncio.Future)


class SessionScheduler:
    """Interleave sessions at quantum granularity under a policy.

    Parameters
    ----------
    max_concurrent:
        Maximum quanta in flight at once (each runs in a worker
        thread); defaults to :func:`default_max_concurrent`.
    policy:
        A policy name from :data:`SCHEDULING_POLICIES`, or a policy
        instance (anything with ``pick``).
    """

    def __init__(
        self,
        *,
        max_concurrent: int | None = None,
        policy: str | SchedulingPolicy = "round-robin",
    ) -> None:
        self.max_concurrent = (
            default_max_concurrent() if max_concurrent is None else max_concurrent
        )
        if self.max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}"
            )
        self.policy: SchedulingPolicy = (
            SCHEDULING_POLICIES.create(policy) if isinstance(policy, str) else policy
        )
        self.in_flight = 0
        self._seq = 0  # global quantum sequence number
        self._arrivals = 0
        self._waiting: list[_Waiting] = []
        #: Grant order by ticket name — the policy-fairness tests read this.
        self.grant_log: list[str] = []

    # ------------------------------------------------------------------ #
    def register(self, ticket: SessionTicket) -> SessionTicket:
        """Stamp a ticket's arrival order (once, at submission)."""
        ticket.arrival = self._arrivals
        self._arrivals += 1
        return ticket

    async def acquire(self, ticket: SessionTicket) -> None:
        """Wait until the policy hands ``ticket`` a free slot."""
        ticket.waiting_since = self._seq
        entry = _Waiting(ticket)
        self._waiting.append(entry)
        self._dispatch()
        try:
            await entry.future
        except asyncio.CancelledError:
            if entry in self._waiting:
                self._waiting.remove(entry)
            elif entry.future.done() and not entry.future.cancelled():
                self.release(ticket)  # granted and cancelled in the same tick
            raise

    def release(self, ticket: SessionTicket) -> None:
        """Return a slot after a quantum completes and dispatch the next."""
        self.in_flight = max(0, self.in_flight - 1)
        ticket.quanta_done += 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Grant free slots to policy-picked waiters (event-loop thread)."""
        while self.in_flight < self.max_concurrent and self._waiting:
            by_ticket = {id(w.ticket): w for w in self._waiting}
            picked = self.policy.pick(
                tuple(w.ticket for w in self._waiting), self._seq
            )
            entry = by_ticket.get(id(picked))
            if entry is None:
                raise RuntimeError(
                    f"{type(self.policy).__name__}.pick returned a ticket "
                    "that is not waiting"
                )
            self._waiting.remove(entry)
            if entry.future.cancelled():
                continue
            self.in_flight += 1
            picked.last_granted = self._seq
            self._seq += 1
            self.grant_log.append(picked.name)
            entry.future.set_result(None)
