"""Feedback sources: streams of rule proposals and verdicts.

A :class:`FeedbackSource` is anything with ``poll(iteration) -> list`` —
the engine drains every attached source once per iteration boundary
(:class:`repro.engine.stages.FeedbackStage`) and feeds the events to the
:class:`~repro.feedback.aggregate.FeedbackAggregator`.  The seam is
transport-agnostic: the two sources here are in-process (a thread-safe
queue for the serving layer and a deterministic scripted schedule for
tests and examples), but a network front-end only needs to produce the
same :class:`RuleProposal` / :class:`RuleVerdict` records.

Rules are serialized symbolically (clause predicates + label
distribution + exception certificates), so a proposal round-trips
through journals and wire formats without touching the dataset.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.data.evolution import Migration, SchemaDelta
from repro.rules.clause import Clause
from repro.rules.predicate import Predicate
from repro.rules.rule import FeedbackRule


def clause_to_jsonable(clause: Clause) -> list[list[Any]]:
    """Symbolic clause encoding: ``[[attribute, operator, value], ...]``."""
    return [
        [p.attribute, p.operator, p.value if isinstance(p.value, str) else float(p.value)]
        for p in clause.predicates
    ]


def clause_from_jsonable(data: Iterable[Iterable[Any]]) -> Clause:
    """Inverse of :func:`clause_to_jsonable`."""
    return Clause(tuple(Predicate(str(a), str(op), v) for a, op, v in data))


def rule_to_jsonable(rule: FeedbackRule) -> dict[str, Any]:
    """Schema-independent rule encoding (clause, pi, exceptions, name)."""
    return {
        "clause": clause_to_jsonable(rule.clause),
        "pi": [float(p) for p in rule.pi],
        "exceptions": [clause_to_jsonable(c) for c in rule.exceptions],
        "name": rule.name,
    }


def rule_from_jsonable(data: dict[str, Any]) -> FeedbackRule:
    """Inverse of :func:`rule_to_jsonable`."""
    return FeedbackRule(
        clause=clause_from_jsonable(data["clause"]),
        pi=tuple(float(p) for p in data["pi"]),
        exceptions=tuple(clause_from_jsonable(c) for c in data.get("exceptions", ())),
        name=str(data.get("name", "")),
    )


def rule_key(rule: FeedbackRule) -> str:
    """Canonical content identity of a rule (stable across processes)."""
    return json.dumps(rule_to_jsonable(rule), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class RuleProposal:
    """A source proposing a rule for the running edit.

    ``proposal_id`` defaults to the rule's content key, so independent
    sources proposing the *same* rule vote on one shared proposal.
    Proposing counts as the proposer's approval vote.
    """

    rule: FeedbackRule
    source: str = ""
    proposal_id: str = ""

    def __post_init__(self) -> None:
        if not self.proposal_id:
            object.__setattr__(self, "proposal_id", rule_key(self.rule))


@dataclass(frozen=True)
class RuleVerdict:
    """A source's approve/reject vote on an existing proposal."""

    proposal_id: str
    approve: bool
    source: str = ""
    weight: float = 1.0


@dataclass(frozen=True)
class MigrationRequest:
    """A source requesting a schema migration of the running edit.

    Migrations are operator actions, not expert opinions: they bypass
    vote aggregation and apply (in arrival order, deduplicated by
    content) at the next iteration boundary, *before* any rule events of
    that boundary — so a rule referencing a just-landed column can apply
    in the same drain.
    """

    deltas: tuple[SchemaDelta, ...]
    source: str = ""
    name: str = ""


@dataclass(frozen=True)
class DeferredRule:
    """A rule string that could not parse against the current schema.

    Rule text referencing a column that has not landed yet cannot be
    validated eagerly; the pipeline re-parses it at each boundary (after
    that boundary's migrations) and parks it until the columns exist.
    """

    text: str
    name: str = ""


def parse_rule_or_defer(
    text: str, schema, label_names, *, name: str = ""
) -> "FeedbackRule | DeferredRule":
    """Parse rule text now, or defer it until its columns land.

    Text referencing an attribute the schema does not (yet) define comes
    back as a :class:`DeferredRule` — the pipeline re-parses it at each
    boundary once migrations have applied.  Every other parse error
    (malformed syntax, bad value for an *existing* column) raises
    immediately: those can never be fixed by a migration landing.
    """
    from repro.rules.parser import RuleParseError, parse_rule

    try:
        return parse_rule(text, schema, label_names, name=name)
    except RuleParseError as exc:
        if "unknown attribute" in str(exc):
            return DeferredRule(text=text, name=name)
        raise


FeedbackEvent = RuleProposal | RuleVerdict | MigrationRequest


def coerce_event(item: Any, *, source: str = "") -> FeedbackEvent | DeferredRule:
    """Normalize an item into a feedback event.

    Bare :class:`FeedbackRule` objects become proposals from ``source``;
    bare :class:`~repro.data.evolution.SchemaDelta` /
    :class:`~repro.data.evolution.Migration` objects become
    :class:`MigrationRequest` s; proposals, verdicts, migration requests,
    and deferred rules pass through unchanged.
    """
    if isinstance(item, (RuleProposal, RuleVerdict, MigrationRequest, DeferredRule)):
        return item
    if isinstance(item, FeedbackRule):
        return RuleProposal(rule=item, source=source)
    if isinstance(item, SchemaDelta):
        return MigrationRequest(deltas=(item,), source=source)
    if isinstance(item, Migration):
        return MigrationRequest(deltas=item.deltas, source=source, name=item.name)
    raise TypeError(
        "feedback items must be FeedbackRule, RuleProposal, RuleVerdict, "
        "SchemaDelta, Migration, MigrationRequest, or DeferredRule; "
        f"got {type(item).__name__}"
    )


@runtime_checkable
class FeedbackSource(Protocol):
    """Anything the engine can drain at an iteration boundary."""

    def poll(self, iteration: int) -> list[RuleProposal | RuleVerdict]:
        """Return events available at ``iteration`` (consumed on return)."""
        ...


class QueueFeedbackSource:
    """Thread-safe in-process queue — the serving layer's transport.

    ``push`` may be called from any thread (the service loop); ``poll``
    runs on the engine's worker thread.  Events are delivered in push
    order.  Intentionally has no ``reset``: a live queue's feeds are
    external inputs, not part of a run's replayable script.
    """

    def __init__(self, name: str = "queue") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._pending: list[RuleProposal | RuleVerdict] = []

    def push(self, *items: Any) -> int:
        """Enqueue rules/proposals/verdicts; returns the number queued."""
        events = [coerce_event(item, source=self.name) for item in items]
        with self._lock:
            self._pending.extend(events)
        return len(events)

    def poll(self, iteration: int) -> list[RuleProposal | RuleVerdict]:
        """Drain every queued event, whatever the iteration."""
        with self._lock:
            out, self._pending = self._pending, []
        return out


class ScriptedFeedbackSource:
    """Deterministic source delivering events at scripted iterations.

    ``schedule`` is an iterable of ``(iteration, event)`` pairs or a
    mapping ``{iteration: event-or-list-of-events}`` (events may be bare
    rules).  ``poll(k)`` returns every not-yet-delivered event scheduled
    at iteration ``<= k``, preserving same-iteration order.  ``reset()``
    rewinds the cursor so a session can be re-run.
    """

    def __init__(
        self,
        schedule: Iterable[tuple[int, Any]] | dict[int, Any],
        name: str = "scripted",
    ) -> None:
        self.name = name
        if isinstance(schedule, dict):
            schedule = [
                (it, ev)
                for it, evs in schedule.items()
                for ev in (evs if isinstance(evs, (list, tuple)) else [evs])
            ]
        entries = [(int(it), coerce_event(ev, source=name)) for it, ev in schedule]
        entries.sort(key=lambda pair: pair[0])  # stable: keeps same-iteration order
        self._schedule = entries
        self._cursor = 0

    def poll(self, iteration: int) -> list[RuleProposal | RuleVerdict]:
        """Deliver the undelivered events scheduled at or before ``iteration``."""
        out: list[RuleProposal | RuleVerdict] = []
        while self._cursor < len(self._schedule) and self._schedule[self._cursor][0] <= iteration:
            out.append(self._schedule[self._cursor][1])
            self._cursor += 1
        return out

    def reset(self) -> None:
        """Rewind so the next poll delivers the schedule from the start."""
        self._cursor = 0
