"""Replay and crash-resume: rebuilding run state from the journal alone.

Two consumers of a session journal live here:

:class:`SessionReplay`
    The post-hoc debugger.  From the journal alone it reconstructs the
    full per-iteration history — accepted/rejected/empty-batch verdicts,
    candidate losses, the objective trajectory, stage wall-time
    breakdowns, batch sizes — as :class:`ReplayIteration` rows whose
    :meth:`~ReplayIteration.to_record` projections match the live run's
    ``FroteResult.history`` field-for-field (pinned by
    ``tests/journal/test_replay_parity.py``).

:func:`fast_forward`
    Journal-based crash-resume.  ``EditSession.start()`` — the one way
    a run begins, whether ``run()`` or an ``EditService`` drives it —
    opens a journaled session's journal and fast-forwards through every
    committed iteration instead of recomputing it: accepted batches are
    re-applied from their journaled rows (O(batch) builder appends), the
    model is refit once at the resume point, and the RNG is restored to
    its journaled post-iteration state — so the continuation consumes
    the exact random stream the uninterrupted run would have.

Exactness contract
------------------
With the default full-refit path (``incremental=False``), a resumed run
is **bit-identical** to the uninterrupted one: every stage input at the
resume point — active dataset bytes, model (a deterministic function of
those bytes), RNG stream position — is reproduced exactly.  This holds
for out-of-core configs too (same bytes, different storage).  With
``incremental=True`` the live run's model is a chain of in-place partial
refits that the journal cannot replay; resume refits from scratch at the
resume point, which is the documented online-continuation semantics —
mathematically equivalent, not guaranteed bit-identical.  Two smaller
divergences: ``state.evaluation`` between events is recomputed over the
post-append dataset (the live loop carries the candidate evaluation over
the pre-append rows — event payload only, never loop numerics), and an
``AcceptanceStage(patience=...)`` rejection streak does not survive the
boundary (the journal records verdicts, not the early-stop counter's
in-flight state).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.persistence import to_jsonable
from repro.journal.reader import JournalReader, ScanResult, Truncation
from repro.journal.records import (
    KIND_ITERATION,
    KIND_RULESET,
    KIND_RUN_FINISHED,
    KIND_RUN_META,
    KIND_RUN_RESUMED,
    KIND_SCHEMA,
    Record,
)
from repro.journal.writer import SessionJournal, run_identity


class JournalResumeError(RuntimeError):
    """The journal cannot be fast-forwarded onto this session."""


@dataclass(frozen=True)
class ReplayIteration:
    """One iteration reconstructed from its journal record."""

    iteration: int
    kind: str  # accepted | rejected | empty-batch
    candidate_loss: float
    accepted: bool
    n_generated: int
    n_added_total: int
    external_score: float | None
    best_loss: float
    n_active: int
    t: float
    stage_seconds: dict[str, float] | None = None
    rng: dict[str, Any] | None = None
    per_rule_counts: list[int] | None = None
    batch: dict[str, Any] | None = None

    @classmethod
    def from_record(cls, record: Record) -> "ReplayIteration":
        data = record.data
        return cls(
            iteration=int(data["iteration"]),
            kind=str(data["kind"]),
            candidate_loss=float(data["candidate_loss"]),
            accepted=bool(data["accepted"]),
            n_generated=int(data["n_generated"]),
            n_added_total=int(data["n_added_total"]),
            external_score=data.get("external_score"),
            best_loss=float(data["best_loss"]),
            n_active=int(data["n_active"]),
            t=record.t,
            stage_seconds=data.get("stage_seconds"),
            rng=data.get("rng"),
            per_rule_counts=data.get("per_rule_counts"),
            batch=data.get("batch"),
        )

    def to_record(self):
        """Project onto the live loop's :class:`IterationRecord`."""
        from repro.engine.state import IterationRecord

        return IterationRecord(
            iteration=self.iteration,
            candidate_loss=self.candidate_loss,
            accepted=self.accepted,
            n_generated=self.n_generated,
            n_added_total=self.n_added_total,
            external_score=self.external_score,
        )

    @property
    def iteration_seconds(self) -> float | None:
        if self.stage_seconds is None:
            return None
        return sum(self.stage_seconds.values())


@dataclass
class _Span:
    """One logical run within a journal: a run-meta plus its iterations.

    A ``run-meta`` record starts a new span; ``run-resumed`` continues
    the latest one (crash-resume keeps extending the same logical run).
    Iterations are keyed by number with later-wins semantics, so an
    iteration that was journaled, lost to a crash *after* the fsync, and
    re-emitted by the resumed process resolves to its latest record.
    """

    meta: Record
    iterations: dict[int, Record] = field(default_factory=dict)
    resumes: list[Record] = field(default_factory=list)
    finished: Record | None = None
    #: ``schema-delta`` and ``ruleset-delta`` records in write order,
    #: which is the live apply order (the feedback stage drains a
    #: boundary's migrations before its rules).  Unlike iterations these
    #: are kept as a list: a crash between a delta's fsync and its
    #: iteration's commit makes the resumed process re-apply (and
    #: re-journal) the same delta, so consumers dedupe by content key
    #: (see :func:`_dedupe_boundary`) rather than by position.
    boundary: list[Record] = field(default_factory=list)


def _session_spans(records: list[Record]) -> list[_Span]:
    spans: list[_Span] = []
    for record in records:
        if record.kind == KIND_RUN_META:
            spans.append(_Span(meta=record))
        elif not spans:
            continue  # segment headers / foreign kinds before any run
        elif record.kind == KIND_ITERATION:
            spans[-1].iterations[int(record.data["iteration"])] = record
        elif record.kind == KIND_RUN_RESUMED:
            spans[-1].resumes.append(record)
        elif record.kind == KIND_RUN_FINISHED:
            spans[-1].finished = record
        elif record.kind in (KIND_RULESET, KIND_SCHEMA):
            spans[-1].boundary.append(record)
    return spans


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _dedupe_boundary(records: list[Record]) -> list[Record]:
    """``records`` with each boundary delta kept at its first write.

    A crashed-then-resumed run re-journals the deltas it re-applies at
    the resume boundary.  A ruleset delta is identified by its
    (iteration, kind, rules-added) triple and a schema delta by its
    (iteration, canonical delta) pair, however often it was written; the
    two key shapes differ in length, so they never collide.
    """
    seen: set[tuple] = set()
    out: list[Record] = []
    for record in records:
        data = record.data
        if record.kind == KIND_RULESET:
            key = (int(data["iteration"]), str(data["kind"]), _canonical(data["rules_added"]))
        else:
            key = (int(data["iteration"]), _canonical(data["delta"]))
        if key not in seen:
            seen.add(key)
            out.append(record)
    return out


def _committed(span: _Span) -> list[ReplayIteration]:
    """The contiguous committed iteration prefix of a span."""
    start = int(span.meta.data.get("start_iteration", 0))
    out: list[ReplayIteration] = []
    i = start
    while i in span.iterations:
        out.append(ReplayIteration.from_record(span.iterations[i]))
        i += 1
    return out


class SessionReplay:
    """Post-hoc view of one journaled session."""

    def __init__(
        self,
        path: Path,
        scan: ScanResult,
        spans: list[_Span],
    ) -> None:
        self.path = path
        self.scan = scan
        self.spans = spans

    @classmethod
    def load(cls, path: str | Path) -> "SessionReplay":
        scan = JournalReader(path).scan()
        return cls(Path(path), scan, _session_spans(scan.records))

    # ------------------------------------------------------------------ #
    @property
    def truncation(self) -> Truncation | None:
        return self.scan.truncation

    @property
    def span(self) -> _Span | None:
        """The latest logical run (replay and resume both use it)."""
        return self.spans[-1] if self.spans else None

    @property
    def meta(self) -> dict[str, Any] | None:
        return dict(self.span.meta.data) if self.span else None

    @property
    def finished(self) -> dict[str, Any] | None:
        span = self.span
        return dict(span.finished.data) if span and span.finished else None

    @property
    def iterations(self) -> list[ReplayIteration]:
        span = self.span
        if span is None:
            return []
        return [
            ReplayIteration.from_record(span.iterations[i])
            for i in sorted(span.iterations)
        ]

    def history(self):
        """The run's ``FroteResult.history``, reconstructed."""
        return [it.to_record() for it in self.iterations]

    def objective_trajectory(self) -> list[float]:
        """Best-loss-so-far after each iteration."""
        return [it.best_loss for it in self.iterations]

    def committed(self) -> list[ReplayIteration]:
        """The contiguous prefix crash-resume would fast-forward."""
        span = self.span
        return _committed(span) if span else []

    def rule_timeline(self) -> list[dict[str, Any]]:
        """The run's rule-set evolution, from the journal alone.

        One row per applied ruleset delta (content-deduped across crash
        boundaries), in application order: when each rule arrived, whether
        it appended or forced a carve-out rebuild, and the resulting
        rule-set size.  This is the feedback-layer analogue of
        :meth:`history` — served ``feed(...)`` sessions replay to the
        same timeline as the live run (pinned by
        ``tests/serve/test_serve_feed.py``).
        """
        rows = []
        for record in self._boundary(KIND_RULESET):
            data = record.data
            rows.append(
                {
                    "iteration": int(data["iteration"]),
                    "kind": str(data["kind"]),
                    "rules": [
                        r.get("name", "") for r in data.get("rules_added", [])
                    ],
                    "rules_added": len(data.get("rules_added", [])),
                    "n_rules": int(
                        data.get("n_rules", len(data.get("ruleset", [])))
                    ),
                    "provenance": str(data.get("provenance", "")),
                    "t": record.t,
                }
            )
        return rows

    def _boundary(self, kind: str) -> list[Record]:
        """The last run's ``kind`` boundary deltas, deduped, in write order."""
        records = _dedupe_boundary(self.span.boundary) if self.span else []
        return [record for record in records if record.kind == kind]

    def schema_timeline(self) -> list[dict[str, Any]]:
        """The run's feature-space evolution, from the journal alone.

        One row per applied schema delta (content-deduped across crash
        boundaries), in application order, carrying the delta itself plus
        the content-hashed version lineage — so an audit can reconstruct
        ``SchemaVersion`` history without the dataset.
        """
        rows = []
        for record in self._boundary(KIND_SCHEMA):
            data = record.data
            rows.append(
                {
                    "iteration": int(data["iteration"]),
                    "op": str(data["delta"].get("op", "")),
                    "column": str(data["delta"].get("column", "")),
                    "delta": dict(data["delta"]),
                    "version": str(data["version"]),
                    "parent": str(data["parent"]),
                    "provenance": str(data.get("provenance", "")),
                    "model_refit": bool(data.get("model_refit", True)),
                    "t": record.t,
                }
            )
        return rows

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, Any]:
        iterations = self.iterations
        accepted = [it for it in iterations if it.accepted]
        rejected = [it for it in iterations if it.kind == "rejected"]
        empty = [it for it in iterations if it.kind == "empty-batch"]
        meta = self.meta or {}
        finished = self.finished
        timed = [
            it.iteration_seconds
            for it in iterations
            if it.iteration_seconds is not None
        ]
        return {
            "path": str(self.path),
            "runs": len(self.spans),
            "resumes": len(self.span.resumes) if self.span else 0,
            "iterations": len(iterations),
            "accepted": len(accepted),
            "rejected": len(rejected),
            "empty": len(empty),
            "n_added": iterations[-1].n_added_total if iterations else 0,
            "ruleset_deltas": len(self.rule_timeline()),
            "schema_deltas": len(self.schema_timeline()),
            "initial_loss": meta.get("initial_loss"),
            "best_loss": iterations[-1].best_loss if iterations else meta.get("initial_loss"),
            "finished": finished is not None,
            "stopped": bool(finished and finished.get("stopped")),
            "seconds": sum(timed) if timed else None,
            "truncation": (
                f"{self.truncation.reason} (last good seq "
                f"{self.truncation.last_good_seq})"
                if self.truncation
                else None
            ),
        }


# ---------------------------------------------------------------------- #
# Crash-resume.
# ---------------------------------------------------------------------- #
def _validate_resume(state, meta: dict[str, Any]) -> None:
    """Refuse a journal whose stored :func:`run_identity` is not this
    session's.  A field an older journal does not carry is skipped, and
    so is a key its ``algorithm`` identity does not carry."""
    if not meta.get("seedable") or not isinstance(state.config.random_state, int):
        raise JournalResumeError(
            "journal resume requires an integer random_state (the original "
            "run's RNG stream must be reconstructible); rerun with "
            "journal_resume=False for a fresh journal"
        )
    for name, live in run_identity(state).items():
        if name not in meta:
            continue
        stored, live = to_jsonable(meta[name]), to_jsonable(live)
        if name == "algorithm" and isinstance(stored, dict) and isinstance(live, dict):
            # An older journal names its algorithm by fewer keys.
            live = {key: live[key] for key in stored if key in live}
        if stored == live:
            continue
        detail = f"journal has {stored!r}, session has {live!r}"
        if name == "config":
            keys = sorted(k for k in stored.keys() | live.keys() if stored.get(k) != live.get(k))
            detail = f"keys {keys} differ; " + detail
        raise JournalResumeError(
            f"journal belongs to another run: run-meta field {name!r} "
            f"does not match this session ({detail})"
        )


def _apply_journaled_ruleset(state, record: Record) -> None:
    """Install one journaled ruleset delta without re-running aggregation.

    Deltas are self-contained (they carry the complete resulting rule
    set), so fast-forward swaps the rule set in, and every cache keyed on
    the old one misses; the per-iteration ``best_loss`` bookkeeping stays
    authoritative for committed iterations, and the tail recompute in
    :func:`fast_forward` covers deltas at the resume boundary.  Rules are
    marked applied on the session's feedback pipeline so re-polled
    sources (scripted schedules re-deliver on resume) dedupe instead of
    double-applying.
    """
    from repro.feedback.delta import delta_from_jsonable

    delta = delta_from_jsonable(record.data)
    state.frs = delta.ruleset
    state.ruleset_log.append(delta)
    if state.feedback is not None:
        for rule in delta.rules_added:
            state.feedback.mark_applied(rule)


def _apply_journaled_schema(state, record: Record) -> None:
    """Re-apply one journaled schema migration during fast-forward.

    Unlike ruleset deltas, a schema delta cannot be installed as pure
    bookkeeping: the active table's columns, the rule set's attribute
    names, and the fitted encoder all change shape, and every later
    journaled batch is keyed by the *migrated* schema's column names.  So
    fast-forward re-runs :func:`~repro.engine.migration.apply_schema_delta`
    — the same deterministic function the live boundary ran — and then
    checks the resulting content-hashed version token against the
    journaled one, which pins the whole schema lineage bit-for-bit.
    """
    from repro.engine.migration import apply_schema_delta, migration_from_jsonable

    migration = migration_from_jsonable(record.data)
    applied = apply_schema_delta(
        state, migration.delta, provenance=migration.provenance
    )
    if applied.version != migration.version:
        raise JournalResumeError(
            f"replaying the schema delta at iteration {migration.iteration} "
            f"produced version {applied.version!r}; journal recorded "
            f"{migration.version!r} (schema lineage diverged)"
        )
    if state.feedback is not None:
        state.feedback.mark_migrated(migration.delta)


_APPLY_JOURNALED = {KIND_SCHEMA: _apply_journaled_schema, KIND_RULESET: _apply_journaled_ruleset}


def fast_forward(state, entries: list[ReplayIteration], boundary: list[Record]):
    """Re-apply committed iterations onto a freshly initialized state.

    Must be called right after ``engine.initialize(state)``: setup
    (modification, initial fit, budgets) is deterministically re-run by
    the engine, then each journaled iteration is replayed as pure
    bookkeeping — no model fits, no generation — with accepted batches
    re-appended from their journaled rows, and the journaled ``boundary``
    deltas (schema migrations re-applied, ruleset deltas re-installed)
    replayed in write order at the iteration boundaries where they were
    applied.  Finishes by refitting the model once and restoring the
    journaled RNG state.
    """
    from repro.data.table import Table

    records = _dedupe_boundary(boundary)
    by_iter: dict[int, list[Record]] = {}
    for record in records:
        by_iter.setdefault(int(record.data["iteration"]), []).append(record)

    any_accepted = False
    for entry in entries:
        if entry.iteration != state.iteration:
            raise JournalResumeError(
                f"journal iteration {entry.iteration} does not follow "
                f"live iteration {state.iteration}"
            )
        # Deltas journaled at iteration k were applied by the feedback
        # stage *before* k's loop body ran, so the batch re-appended
        # below matches the migrated column layout.  The entry's
        # best_loss already reflects them, so the bookkeeping below
        # overwrites whatever the re-applies compute.
        for record in by_iter.pop(entry.iteration, []):
            _APPLY_JOURNALED[record.kind](state, record)
        if entry.accepted:
            if entry.batch is None or entry.per_rule_counts is None:
                raise JournalResumeError(
                    f"accepted iteration {entry.iteration} was journaled "
                    "without its batch payload"
                )
            schema = state.active.X.schema
            table = Table(
                schema,
                {name: entry.batch["columns"][name] for name in schema.names},
            )
            labels = np.asarray(entry.batch["labels"], dtype=np.int64)
            state.accept_batch(
                state.ensure_builder().stage(table, labels),
                [int(c) for c in entry.per_rule_counts],
            )
            any_accepted = True
            if state.active.n != entry.n_active:
                raise JournalResumeError(
                    f"replaying iteration {entry.iteration} produced "
                    f"{state.active.n} active rows; journal recorded "
                    f"{entry.n_active}"
                )
        state.best_loss = entry.best_loss
        state.history.append(entry.to_record())
        state.iteration = entry.iteration + 1
    # Deltas at the resume boundary: journaled by a feedback stage whose
    # iteration then crashed before committing.  The continuation's
    # feedback stage would re-deliver them anyway (sources re-poll);
    # installing them here keeps the journal authoritative and makes the
    # re-delivery a dedup no-op.
    for iteration in sorted(by_iter):
        if iteration > state.iteration:
            raise JournalResumeError(
                f"journaled delta at iteration {iteration} is "
                f"beyond the committed prefix (resume point "
                f"{state.iteration})"
            )
        for record in by_iter[iteration]:
            _APPLY_JOURNALED[record.kind](state, record)
    if any_accepted:
        state.model = state.algorithm(state.active)
    if any_accepted or records:
        state.evaluation = state.evaluate_active()
    if by_iter:
        # Committed iterations carried their own journaled best_loss; a
        # tail delta post-dates the last commit, so recompute exactly as
        # the live apply_rule did at this boundary.
        state.best_loss = state.loss_of(state.evaluation)
    if entries:
        rng = entries[-1].rng
        if rng is None:
            raise JournalResumeError(
                f"iteration {entries[-1].iteration} carries no RNG state"
            )
        bitgen = state.rng.bit_generator
        if type(bitgen).__name__ != rng["bit_generator"]:
            raise JournalResumeError(
                f"journaled RNG is {rng['bit_generator']!r}, live is "
                f"{type(bitgen).__name__!r}"
            )
        bitgen.state = rng["state"]
    return state


def _open_journal(state, engine) -> SessionJournal:
    """Run setup on ``state`` with its journal attached; return the journal.

    The config must carry ``journal_dir``.  If the journal already holds
    committed iterations for this exact session (its stored
    :func:`~repro.journal.writer.run_identity` matches the live one) and
    ``journal_resume`` is on, they are fast-forwarded instead of
    recomputed and the journal records the resume; otherwise the run
    starts fresh (wiping the journal only when ``journal_resume=False``).
    """
    config = state.config
    name = config.journal_name or "session"
    path = Path(config.journal_dir) / name
    meta = {"name": name}

    entries: list[ReplayIteration] = []
    boundary: list[Record] = []
    if config.journal_resume and JournalReader(path).exists:
        scan = JournalReader(path).scan()
        if scan.truncation is not None and not scan.truncation.repairable:
            raise JournalResumeError(
                f"journal at {path} is corrupt ({scan.truncation.reason}: "
                f"{scan.truncation.detail}); move it aside or pass "
                "journal_resume=False"
            )
        spans = _session_spans(scan.records)
        if spans:
            _validate_resume(state, dict(spans[-1].meta.data))
            entries = _committed(spans[-1])
            boundary = spans[-1].boundary

    if entries:
        engine.initialize(state)
        fast_forward(state, entries, boundary)
        journal = SessionJournal(path, meta=meta).attach(state)
        journal.record_resumed(state, fast_forwarded=len(entries))
        return journal

    journal = SessionJournal(
        path, meta=meta, fresh=not config.journal_resume
    ).attach(state)
    try:
        engine.initialize(state)
    except BaseException:
        journal.close()
        raise
    return journal
