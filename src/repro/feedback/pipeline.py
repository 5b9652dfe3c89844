"""The per-run feedback pipeline: sources → aggregator → ruleset deltas.

One :class:`FeedbackPipeline` is built per run by
:meth:`EditSession.build_state` and drained by
:class:`repro.engine.stages.FeedbackStage` at every iteration boundary.
It owns the run's aggregator state plus an applied-rule set keyed on
rule content, so re-delivered events (scripted sources after a
crash-resume, duplicate proposals from several sources) apply at most
once.

Since the schema-evolution arc the pipeline also carries the run's
**migration schedule** and the migration events sources deliver: at each
boundary, scheduled then streamed schema deltas apply *first* (through
:func:`repro.engine.migration.apply_schema_delta`), then rules parked at
earlier boundaries retry, then the boundary's own rules — so a rule
referencing a column whose delta lands at the same boundary applies
immediately, and one referencing a column that has not landed yet parks
instead of failing the run.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.data.evolution import SchemaDelta, schema_delta_key
from repro.feedback.aggregate import APPROVED, FeedbackAggregator, RuleDecision
from repro.feedback.delta import RuleSetDelta, apply_rule
from repro.feedback.sources import (
    DeferredRule,
    FeedbackSource,
    MigrationRequest,
    rule_key,
)
from repro.rules.rule import FeedbackRule


class FeedbackPipeline:
    """Drains feedback sources into a live edit state.

    Parameters
    ----------
    sources:
        Streams polled at each boundary (anything with ``poll(iteration)``).
    policy / policy_kwargs:
        Aggregation policy (registry name or instance) deciding when a
        proposal's votes become a ruleset change.
    resolve / mixture_weight:
        Conflict-resolution strategy for rebuild deltas.
    schedule:
        ``{iteration: [rules]}`` applied unconditionally (no aggregation)
        the first time the boundary reaches that iteration — the
        "present but inactive until iteration k" reference path the
        streamed-parity contract compares against.
    migrations:
        ``{iteration: [SchemaDelta]}`` — scheduled feature-space
        migrations, applied in order at their boundary *before* any rule
        of the same boundary (``EditSession.with_schema_migration``).
    """

    def __init__(
        self,
        sources: Iterable[FeedbackSource] = (),
        *,
        policy: Any = "unanimous",
        policy_kwargs: dict[str, Any] | None = None,
        resolve: str = "carve",
        mixture_weight: float = 0.5,
        schedule: dict[int, list[FeedbackRule]] | None = None,
        migrations: dict[int, list[SchemaDelta]] | None = None,
    ) -> None:
        self.sources = list(sources)
        self.aggregator = FeedbackAggregator(policy, **(policy_kwargs or {}))
        self.resolve = resolve
        self.mixture_weight = mixture_weight
        self.schedule = {int(k): list(v) for k, v in (schedule or {}).items()}
        self.migrations = {int(k): list(v) for k, v in (migrations or {}).items()}
        #: content keys of rules already applied to the state this run.
        self.applied: set[str] = set()
        #: content keys of schema deltas already applied this run.
        self.applied_migrations: set[str] = set()
        #: rules (or deferred rule strings) waiting for their columns to
        #: land, as ``(item, provenance)`` pairs in arrival order.
        self.parked: list[tuple[Any, str]] = []
        self._scheduled_done: set[int] = set()
        self._migrations_done: set[int] = set()

    def mark_applied(self, rule: FeedbackRule) -> None:
        """Record an externally applied rule (journal fast-forward).

        A source re-delivering it is then a no-op.
        """
        self.applied.add(rule_key(rule))

    def mark_migrated(self, delta: SchemaDelta) -> None:
        """Record an externally applied schema delta (journal fast-forward).

        A source or schedule re-delivering it is then a no-op.
        """
        self.applied_migrations.add(schema_delta_key(delta))

    def drain(self, state) -> list[RuleSetDelta]:
        """Apply everything due at the current iteration boundary.

        Order: scheduled migrations, streamed migration requests, parked
        rules (retried now that columns may exist), scheduled rules, and
        finally source rule events through the aggregator.  The order is
        deterministic per boundary, which the journal replay relies on.
        """
        boundary = state.iteration
        deltas: list[RuleSetDelta] = []

        for it in sorted(k for k in self.migrations if k <= boundary):
            if it in self._migrations_done:
                continue
            self._migrations_done.add(it)
            for delta in self.migrations[it]:
                self._migrate(state, delta, provenance=f"scheduled@{it}")

        events = []
        for source in self.sources:
            events.extend(source.poll(boundary))
        rule_events = []
        arrived: list[tuple[Any, str]] = []
        for event in events:
            if isinstance(event, MigrationRequest):
                label = event.name or event.source or "stream"
                for delta in event.deltas:
                    self._migrate(state, delta, provenance=label)
            elif isinstance(event, DeferredRule):
                # Unparsed rule text cannot vote; once its columns land
                # it applies directly, like a scheduled rule.
                arrived.append((event, event.name or "deferred"))
            else:
                rule_events.append(event)

        waiting: list[tuple[Any, str]] = []
        if self.parked:
            waiting, self.parked = self.parked, []
        waiting.extend(arrived)
        for item, provenance in waiting:
            deltas.extend(self._apply(state, item, provenance=provenance))

        for it in sorted(k for k in self.schedule if k <= boundary):
            if it in self._scheduled_done:
                continue
            self._scheduled_done.add(it)
            for rule in self.schedule[it]:
                deltas.extend(self._apply(state, rule, provenance=f"scheduled@{it}"))

        if rule_events:
            for decision in self.aggregator.ingest(rule_events):
                if decision.status == APPROVED:
                    deltas.extend(
                        self._apply(
                            state, decision.rule, provenance=self._provenance(decision)
                        )
                    )
        return deltas

    @staticmethod
    def _provenance(decision: RuleDecision) -> str:
        voters = ",".join(decision.approvals) or "unattributed"
        return f"approved by {voters}"

    def _migrate(self, state, delta: SchemaDelta, *, provenance: str) -> None:
        key = schema_delta_key(delta)
        if key in self.applied_migrations:
            return
        self.applied_migrations.add(key)
        from repro.engine.migration import apply_schema_delta

        apply_schema_delta(state, delta, provenance=provenance)

    def _apply(self, state, rule: Any, *, provenance: str) -> list[RuleSetDelta]:
        schema = state.active.X.schema
        if isinstance(rule, DeferredRule):
            from repro.rules.parser import RuleParseError, parse_rule

            try:
                rule = parse_rule(
                    rule.text, schema, state.active.label_names, name=rule.name
                )
            except RuleParseError:
                # Still references columns (or categories) that have not
                # landed; park and retry after the next migration.
                self.parked.append((rule, provenance))
                return []
        referenced = set(rule.clause.attributes)
        for exc_clause in rule.exceptions:
            referenced |= set(exc_clause.attributes)
        if not referenced.issubset(schema.names):
            self.parked.append((rule, provenance))
            return []
        key = rule_key(rule)
        if key in self.applied:
            return []
        self.applied.add(key)
        return [
            apply_rule(
                state,
                rule,
                resolve=self.resolve,
                mixture_weight=self.mixture_weight,
                provenance=provenance,
            )
        ]
