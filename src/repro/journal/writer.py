"""Appending to journals: the durable writer and the session subscriber.

Two layers:

:class:`JournalWriter`
    The generic append side of the format in :mod:`repro.journal.records`:
    segment rotation, the seq/prev/h chain, fsync on demand, and
    crash-safe *reopening* — a journal left with a torn final line (the
    only artifact an append-crash can produce) is repaired by truncating
    it, and the chain continues in a fresh segment.  Grid runners and the
    serving layer drive this directly with their own record kinds.

:class:`SessionJournal`
    The edit-loop subscriber: attached to an
    :class:`~repro.engine.state.EditState` it listens to the engine's
    ``ProgressEvent`` stream and appends one durable record per
    iteration — including, for accepted iterations, the generated batch
    rows and the post-iteration RNG state, which is exactly what
    journal-based crash-resume (``EditSession.start()``, through
    :func:`repro.journal.replay.fast_forward`) needs to fast-forward a
    re-run bit-identically.

Durability contract: records written with ``sync=True`` (run metadata
and every iteration record) are flushed *and* fsynced before ``append``
returns, so a crash at any instant loses at most the record being
written — and that half-record is detected (and repaired) as a torn
tail.  Quantum-level serving telemetry is flushed but not fsynced; it is
observability, not state the resume path depends on.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.journal.reader import JournalReader
from repro.journal.records import (
    KIND_HEADER,
    KIND_ITERATION,
    KIND_RULESET,
    KIND_RUN_FINISHED,
    KIND_RUN_META,
    KIND_RUN_RESUMED,
    KIND_SCHEMA,
    SCHEMA_VERSION,
    encode_line,
    line_hash,
    list_segments,
    segment_index,
    segment_name,
)

#: Default records per segment before rotating to a new file.
DEFAULT_SEGMENT_RECORDS = 4096

#: FroteConfig fields snapshotted into ``run-meta`` — the knobs that
#: determine the numeric trajectory of a run.  Resume refuses a journal
#: whose snapshot disagrees with the live config on any of these.
CONFIG_SNAPSHOT_FIELDS = (
    "tau", "q", "eta", "k", "selection", "mod_strategy", "objective",
    "mra_weight", "accept_equal", "incremental",
)


class JournalError(RuntimeError):
    """The journal on disk cannot be safely appended to."""


class JournalWriter:
    """Append-only writer over one journal directory.

    Parameters
    ----------
    path:
        Journal directory (created if missing).
    meta:
        Writer metadata embedded in every segment header (e.g.
        ``{"journal_kind": "session", "name": ...}``).
    segment_max_records:
        Rotate to a new segment file after this many records.
    fsync:
        Honor ``sync=True`` appends with a real ``os.fsync`` (tests
        disable this for speed; the records are still flushed).
    fresh:
        Delete any existing segments instead of continuing their chain.

    Reopening an existing journal repairs a repairable torn tail
    (truncating the damaged bytes) and continues the seq/prev chain in a
    **new** segment; any deeper corruption raises :class:`JournalError`
    rather than appending records that can never verify.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        meta: dict[str, Any] | None = None,
        segment_max_records: int = DEFAULT_SEGMENT_RECORDS,
        fsync: bool = True,
        fresh: bool = False,
    ) -> None:
        if segment_max_records < 2:
            raise ValueError(
                f"segment_max_records must be >= 2, got {segment_max_records}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.meta = dict(meta or {})
        self.segment_max_records = segment_max_records
        self.fsync = fsync
        self._fh: IO[bytes] | None = None
        self._segment = -1
        self._records_in_segment = 0
        self._next_seq = 0
        self._prev_hash = ""
        self._closed = False
        #: Cumulative wall seconds spent in write/flush/fsync calls —
        #: the durability cost the journal bench gates on.
        self.io_seconds = 0.0

        existing = list_segments(self.path)
        if fresh:
            for seg in existing:
                seg.unlink()
            existing = []
        if existing:
            scan = JournalReader(self.path).scan()
            if scan.truncation is not None:
                if not scan.truncation.repairable:
                    raise JournalError(
                        f"journal at {self.path} is corrupt "
                        f"({scan.truncation.reason}: {scan.truncation.detail}); "
                        "refusing to append — move it aside or open with "
                        "fresh=True"
                    )
                self._repair_torn_tail(scan.truncation)
            self._next_seq = scan.last_seq + 1
            self._prev_hash = scan.last_hash
            self._segment = max(segment_index(p) for p in existing)  # type: ignore[type-var]
        self._open_segment()

    # ------------------------------------------------------------------ #
    def _repair_torn_tail(self, truncation) -> None:
        seg_path = self.path / segment_name(truncation.segment)
        with open(seg_path, "r+b") as fh:
            fh.truncate(truncation.byte_offset)
            fh.flush()
            os.fsync(fh.fileno())

    def _open_segment(self) -> None:
        if self._fh is not None:
            self._sync()
            self._fh.close()
        self._segment += 1
        seg_path = self.path / segment_name(self._segment)
        self._fh = open(seg_path, "ab")
        self._records_in_segment = 0
        self._append_line(
            KIND_HEADER,
            {
                "schema_version": SCHEMA_VERSION,
                "segment": self._segment,
                "meta": self.meta,
            },
            sync=True,
        )

    def _append_line(self, kind: str, data: Any, *, sync: bool) -> int:
        assert self._fh is not None
        line = encode_line(self._next_seq, self._prev_hash, kind, time.time(), data)
        t0 = time.perf_counter()
        self._fh.write(line + b"\n")
        self._fh.flush()
        if sync and self.fsync:
            os.fsync(self._fh.fileno())
        self.io_seconds += time.perf_counter() - t0
        self._prev_hash = line_hash(line)
        seq = self._next_seq
        self._next_seq += 1
        self._records_in_segment += 1
        return seq

    # ------------------------------------------------------------------ #
    def append(self, kind: str, data: Any, *, sync: bool = False) -> int:
        """Append one record; returns its sequence number.

        ``sync=True`` fsyncs before returning (the durability boundary);
        plain appends are flushed to the OS but not forced to disk.
        """
        if self._closed:
            raise JournalError(f"journal writer for {self.path} is closed")
        if self._records_in_segment >= self.segment_max_records:
            self._open_segment()
        return self._append_line(kind, data, sync=sync)

    def _sync(self) -> None:
        if self._fh is not None:
            t0 = time.perf_counter()
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
            self.io_seconds += time.perf_counter() - t0

    def close(self) -> None:
        """Flush, fsync, and close (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._fh is not None:
            self._sync()
            self._fh.close()
            self._fh = None

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def next_seq(self) -> int:
        return self._next_seq

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------- #
def dataset_fingerprint(dataset) -> dict[str, Any]:
    """Content identity of a dataset: shape, names, and a bytes hash.

    Used by resume to refuse fast-forwarding a journal onto a different
    input dataset (which would silently replay the wrong rows).
    """
    digest = hashlib.sha256()
    for name in dataset.X.schema.names:
        digest.update(np.ascontiguousarray(dataset.X.column(name)).tobytes())
    digest.update(np.ascontiguousarray(dataset.y).tobytes())
    return {
        "n": int(dataset.n),
        "columns": list(dataset.X.schema.names),
        "label_names": list(dataset.label_names),
        "sha": digest.hexdigest()[:16],
    }


def ruleset_fingerprint(frs) -> str:
    """Content identity of a rule set: a hash of its rules' canonical
    keys, in order.

    Used by resume to refuse fast-forwarding a journal written with other
    rules (whose accepted batches the new rules would not have drawn).
    """
    from repro.feedback.sources import rule_key

    digest = hashlib.sha256()
    for rule in frs:
        digest.update(rule_key(rule).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def config_snapshot(config) -> dict[str, Any]:
    """The trajectory-determining config fields (see resume validation)."""
    return {f: getattr(config, f) for f in CONFIG_SNAPSHOT_FIELDS}


def algorithm_identity(algorithm) -> Any:
    """What names a training algorithm in a run identity: its
    ``identity`` attribute (``repro.models.algorithm`` sets one), else
    its ``module.qualname``."""
    identity = getattr(algorithm, "identity", None)
    if identity is not None:
        return identity
    named = algorithm if hasattr(algorithm, "__qualname__") else type(algorithm)
    return f"{named.__module__}.{named.__qualname__}"


def run_identity(state) -> dict[str, Any]:
    """The fields that say which run a session journal belongs to.

    Journaled in ``run-meta``; resume compares them with the live
    session's field by field and refuses the journal on any difference.
    Each is read from an input setup does not change, so the value is the
    same before setup (resume validation) and at ``started`` (writing):
    the rule set is the initial one, because streamed rule deltas are
    journaled on their own.
    """
    seed = state.config.random_state
    return {
        "config": config_snapshot(state.config),
        "random_state": seed if isinstance(seed, (int, type(None))) else None,
        "dataset": dataset_fingerprint(state.input_dataset),
        "rules": ruleset_fingerprint(state.frs),
        "bit_generator": type(state.rng.bit_generator).__name__,
        "start_iteration": state.iteration,
        "algorithm": algorithm_identity(state.algorithm),
    }


def rng_snapshot(rng: np.random.Generator) -> dict[str, Any]:
    """Restorable bit-generator state (JSON keeps Python bigints exact)."""
    return {
        "bit_generator": type(rng.bit_generator).__name__,
        "state": rng.bit_generator.state,
    }


class SessionJournal:
    """Durable observer of one edit session.

    Attach to an :class:`~repro.engine.state.EditState` *before* the
    engine runs; every ``ProgressEvent`` becomes a journal record:

    ``run-meta`` (at ``started``)
        The :func:`run_identity` resume validates, plus budgets and the
        initial loss for status views.
    ``iteration`` (at ``accepted`` / ``rejected`` / ``empty-batch``)
        The full :class:`~repro.engine.state.IterationRecord` payload
        plus stage timings, the post-iteration RNG state, and — for
        accepted iterations — the generated batch's rows, labels, and
        per-rule counts.  Fsynced: this is the crash-resume boundary.
    ``run-finished`` (at ``finished``)
        Closing totals.

    The journal listener is engine-isolated like any other listener (a
    failure lands in ``EditState.listener_errors`` with its event kind
    and iteration), so a full disk cannot take down the edit loop.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        meta: dict[str, Any] | None = None,
        fsync: bool = True,
        fresh: bool = False,
        segment_max_records: int = DEFAULT_SEGMENT_RECORDS,
    ) -> None:
        base = {"journal_kind": "session"}
        base.update(meta or {})
        self.writer = JournalWriter(
            path,
            meta=base,
            fsync=fsync,
            fresh=fresh,
            segment_max_records=segment_max_records,
        )
        self._state = None

    @property
    def path(self) -> Path:
        return self.writer.path

    @property
    def io_seconds(self) -> float:
        return self.writer.io_seconds

    # ------------------------------------------------------------------ #
    def attach(self, state) -> "SessionJournal":
        """Subscribe to ``state``'s progress events (appended last, so
        user listeners observe each event before it becomes durable)."""
        self._state = state
        state.listeners.append(self._on_event)
        return self

    def _on_event(self, event) -> None:
        state = self._state
        if state is None:
            return
        if event.kind == "started":
            self.writer.append(KIND_RUN_META, self._run_meta(state), sync=True)
        elif event.kind == "ruleset":
            # A feedback delta just landed: journal the full resulting
            # rule set (self-contained — replay reconstructs the rule
            # timeline without re-running aggregation), fsynced like
            # iteration records so crash-resume sees every applied rule.
            self.writer.append(
                KIND_RULESET, self._ruleset_data(state, event), sync=True
            )
        elif event.kind == "schema":
            # A schema migration just landed: journal the delta plus its
            # lineage tokens, fsynced — crash-resume must fast-forward
            # through migrations before it can re-append later batches
            # (their journaled columns are keyed by the migrated schema).
            from repro.engine.migration import migration_to_jsonable

            self.writer.append(
                KIND_SCHEMA, migration_to_jsonable(event.schema), sync=True
            )
        elif event.record is not None:
            self.writer.append(
                KIND_ITERATION, self._iteration_data(state, event), sync=True
            )
        elif event.kind == "finished":
            self.writer.append(
                KIND_RUN_FINISHED,
                {
                    "iterations": state.iteration,
                    "n_added": state.n_added,
                    "best_loss": state.best_loss,
                    "stopped": state.stopped,
                },
                sync=True,
            )

    # ------------------------------------------------------------------ #
    def _run_meta(self, state) -> dict[str, Any]:
        return {
            **run_identity(state),
            "seedable": isinstance(state.config.random_state, (int, type(None))),
            "eta": state.eta,
            "quota": state.quota,
            "max_iteration": state.max_iteration,
            "n_active": state.active.n,
            "n_relabelled": state.n_relabelled,
            "n_dropped": state.n_dropped,
            "initial_loss": state.best_loss,
            "warm_start": state.warm_start,
            "n_rules": len(tuple(state.frs)),
        }

    def _ruleset_data(self, state, event) -> dict[str, Any]:
        from repro.feedback.delta import delta_to_jsonable

        data = delta_to_jsonable(event.ruleset)
        data["n_rules"] = len(tuple(state.frs))
        return data

    def _iteration_data(self, state, event) -> dict[str, Any]:
        record = event.record
        data: dict[str, Any] = {
            "kind": event.kind,
            "iteration": record.iteration,
            "candidate_loss": record.candidate_loss,
            "accepted": record.accepted,
            "n_generated": record.n_generated,
            "n_added_total": record.n_added_total,
            "external_score": record.external_score,
            "best_loss": state.best_loss,
            "n_active": state.active.n,
            "stage_seconds": event.stage_seconds,
            "rng": rng_snapshot(state.rng),
        }
        if record.accepted:
            batch = state.batch
            data["per_rule_counts"] = list(state.per_rule_counts)
            data["batch"] = {
                "columns": {
                    name: batch.table.column(name)
                    for name in batch.table.schema.names
                },
                "labels": batch.labels,
            }
        return data

    # ------------------------------------------------------------------ #
    def record_resumed(self, state, *, fast_forwarded: int) -> None:
        """Mark a journal-based resume: the chain continues, the next
        ``iteration`` records extend the same logical run."""
        self.writer.append(
            KIND_RUN_RESUMED,
            {
                "iteration": state.iteration,
                "n_added": state.n_added,
                "best_loss": state.best_loss,
                "fast_forwarded": fast_forwarded,
                "rng": rng_snapshot(state.rng),
            },
            sync=True,
        )

    def close(self) -> None:
        self.writer.close()

    def __enter__(self) -> "SessionJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
