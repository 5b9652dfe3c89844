"""Applying schema deltas to a live edit state.

This is the engine-side half of :mod:`repro.data.evolution` — the
analogue of :mod:`repro.feedback.delta` for the *feature-space* axis.  A
:class:`~repro.data.evolution.SchemaDelta` arriving at an iteration
boundary is applied by :func:`apply_schema_delta`, which

1. migrates the feedback rule set first (refusing destructive deltas on
   referenced columns *before* anything mutates),
2. replays the delta over the active dataset,
3. records a rebuild on the state (fresh dataset version, row caches
   cleared, append builder dropped) and advances the content-hashed
   :class:`~repro.data.evolution.SchemaVersion` lineage,
4. classifies every derived artifact as **survive vs refit**: the FRS
   row-assignment cache survives any migratable delta when it covers
   every row (coverage reads only referenced columns) and is reseeded
   under the migrated rule set, the fitted encoder/model and prediction
   cache survive a pure rename (the encoder migrates symbolically) and
   are deterministically refit otherwise, and the per-rule populations /
   generators / evaluation, keyed on the old dataset version, are always
   recomputed.

Everything here is a pure function of (state, delta), so journal replay
re-applying the same deltas at the same boundaries reconstructs the
live run bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.evolution import (
    SchemaDelta,
    SchemaVersion,
    delta_from_jsonable,
    delta_to_jsonable,
    migrate_ruleset,
)

__all__ = [
    "SchemaMigrationRecord",
    "apply_schema_delta",
    "migration_to_jsonable",
    "migration_from_jsonable",
]


@dataclass(frozen=True)
class SchemaMigrationRecord:
    """One applied schema migration on a run's timeline.

    Self-contained like :class:`~repro.feedback.delta.RuleSetDelta`: the
    delta plus the lineage tokens around it, so journals and audits can
    reconstruct the schema timeline without replaying data.
    """

    delta: SchemaDelta
    iteration: int
    #: Content-hashed schema-version tokens after/before the delta.
    version: str
    parent: str
    provenance: str = ""
    #: Whether the model was deterministically refit (False: the fitted
    #: encoder migrated symbolically — pure renames only).
    model_refit: bool = True


def migration_to_jsonable(record: SchemaMigrationRecord) -> dict[str, Any]:
    return {
        "delta": delta_to_jsonable(record.delta),
        "iteration": int(record.iteration),
        "version": record.version,
        "parent": record.parent,
        "provenance": record.provenance,
        "model_refit": bool(record.model_refit),
    }


def migration_from_jsonable(data: dict[str, Any]) -> SchemaMigrationRecord:
    return SchemaMigrationRecord(
        delta=delta_from_jsonable(data["delta"]),
        iteration=int(data["iteration"]),
        version=str(data["version"]),
        parent=str(data["parent"]),
        provenance=str(data.get("provenance", "")),
        model_refit=bool(data.get("model_refit", True)),
    )


def apply_schema_delta(
    state, delta: SchemaDelta, *, provenance: str = "migration"
) -> SchemaMigrationRecord:
    """Apply one schema delta to a live :class:`EditState` at a boundary.

    Raises :class:`~repro.data.evolution.SchemaMigrationError` — with the
    state untouched — when the delta cannot apply (dropping/retyping a
    column an active rule references, unknown column, bad cast).
    """
    old_schema = state.active.X.schema
    if state.schema_version is None or state.schema_version.schema != old_schema:
        state.schema_version = SchemaVersion.genesis(old_schema)

    # Migrate rules and data first: both raise on an inapplicable delta
    # before any state mutates, so a refused migration is a clean no-op.
    old_frs = state.frs
    new_frs = migrate_ruleset(old_frs, delta)
    new_active = delta.apply_to_dataset(state.active)

    old_predictions = state.predictions_cache
    old_assign = state.assign_cache
    n = state.active.n
    state.record_rebuild()
    state.active = new_active
    state.frs = new_frs
    state.schema_version = state.schema_version.advance(delta)

    # Survive-vs-refit: the fitted encoder/model.
    refit = True
    if delta.model_survives and state.model is not None:
        encoder = getattr(state.model, "encoder_", None)
        if encoder is not None and hasattr(encoder, "migrate"):
            try:
                encoder.migrate(new_active.X.schema)
                refit = False
            except ValueError:
                refit = True  # layout changed after all — refit below
    if refit and state.model is not None and state.algorithm is not None:
        state.model = state.algorithm(state.active)

    # Survive-vs-refit: caches.  Rule coverage reads only referenced
    # columns, and migrate_ruleset succeeding proves no referenced column
    # was dropped or retyped, so a fresh assignment pass would be
    # bit-identical — reinstall the cached one.  The prediction cache only
    # survives when the model object itself did.  Row count is preserved,
    # so a cache survives only when it covered every row: a shorter one
    # (an accepted batch it was never extended over) is recomputed.
    if old_assign is not None and old_assign[0] is old_frs and len(old_assign[1]) == n:
        state.seed_assignment(old_assign[1])
    if (
        not refit
        and old_predictions is not None
        and old_predictions[0] is state.model
        and len(old_predictions[1]) == n
    ):
        state.seed_predictions(*old_predictions)

    # Re-evaluate under the migrated (dataset, rules, model) so the next
    # acceptance compares like-with-like — mirrors the ruleset-delta
    # rebuild path.
    evaluation = state.evaluate_active()
    state.evaluation = evaluation
    state.best_loss = state.loss_of(evaluation)

    record = SchemaMigrationRecord(
        delta=delta,
        iteration=state.iteration,
        version=state.schema_version.version,
        parent=state.schema_version.parent or "",
        provenance=provenance,
        model_refit=refit,
    )
    state.schema_log.append(record)
    state.emit("schema", schema=record)
    return record
