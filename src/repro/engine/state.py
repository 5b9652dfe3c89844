"""The state threaded through the edit pipeline, and its outputs.

:class:`EditState` is the single mutable object every :class:`~repro.engine
.stages.Stage` reads and writes; :class:`IterationRecord` /
:class:`FroteResult` are the per-iteration and run-level outputs (defined
here, re-exported from :mod:`repro.core` and :mod:`repro`); and
:class:`ProgressEvent` is the structured notification the engine emits to
session listeners.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.audit import EditAudit, RowProvenance
from repro.data.builder import DatasetBuilder
from repro.data.dataset import Dataset
from repro.rules.ruleset import FeedbackRuleSet


@dataclass(frozen=True)
class IterationRecord:
    """One augmentation-loop iteration for progress analysis (paper Fig. 9)."""

    iteration: int
    candidate_loss: float
    accepted: bool
    n_generated: int
    n_added_total: int
    external_score: float | None = None  # track_metric output, if any


@dataclass
class FroteResult:
    """Output of a FROTE run."""

    dataset: Dataset  # the augmented dataset D̂
    model: Any  # TableModel trained on D̂
    initial_evaluation: Any
    final_evaluation: Any
    history: list[IterationRecord] = field(default_factory=list)
    n_added: int = 0
    iterations: int = 0
    n_relabelled: int = 0
    n_dropped: int = 0
    provenance: RowProvenance | None = None
    #: The feedback rule set the run *ended* with.  Differs from the
    #: starting set when streaming feedback applied ruleset deltas; the
    #: deltas themselves are in ``ruleset_log``.
    frs: FeedbackRuleSet | None = None
    ruleset_log: list = field(default_factory=list)
    #: Every :class:`~repro.engine.migration.SchemaMigrationRecord`
    #: applied during the run, in order — the feature-space timeline
    #: (empty for frozen-schema runs).
    schema_log: list = field(default_factory=list)
    #: The model the run's setup trained on the modified input dataset,
    #: before any synthetic rows (on a warm start, on the resumed
    #: dataset).
    initial_model: Any = None

    @property
    def accepted_iterations(self) -> int:
        return sum(1 for rec in self.history if rec.accepted)

    def audit(self, frs: FeedbackRuleSet, *, mod_strategy: str = "", **metadata) -> EditAudit:
        """Governance-ready audit record of this edit (paper §6)."""
        return EditAudit.from_run(
            frs, self, mod_strategy=mod_strategy, metadata=metadata
        )

    @property
    def added_fraction(self) -> float:
        """Δ#Ins / |D| as reported in the paper's Table 4."""
        base = self.dataset.n - self.n_added
        return self.n_added / base if base else 0.0


@dataclass(frozen=True)
class ProgressEvent:
    """A structured notification from the edit loop.

    ``kind`` is one of ``"started"``, ``"accepted"``, ``"rejected"``,
    ``"empty-batch"``, ``"ruleset"``, ``"schema"``, or ``"finished"``.
    ``record`` is the :class:`IterationRecord` just appended (``None`` for
    ``started`` / ``ruleset`` / ``schema`` / ``finished``); ``model`` and
    ``evaluation`` describe the *current best* model at emission time.
    """

    kind: str
    iteration: int
    n_added: int
    record: IterationRecord | None = None
    model: Any = None
    evaluation: Any = None
    #: Wall-clock seconds per pipeline stage for the iteration just
    #: finished (stage class name → seconds); ``None`` for events emitted
    #: outside the loop or by drivers that do not time stages.
    stage_seconds: dict[str, float] | None = None
    #: The :class:`~repro.feedback.delta.RuleSetDelta` just applied
    #: (``"ruleset"`` events only).
    ruleset: Any = None
    #: The :class:`~repro.engine.migration.SchemaMigrationRecord` just
    #: applied (``"schema"`` events only).
    schema: Any = None

    @property
    def accepted(self) -> bool:
        return self.kind == "accepted"

    @property
    def iteration_seconds(self) -> float | None:
        """Total stage wall time of the iteration (``None`` when untimed)."""
        if self.stage_seconds is None:
            return None
        return sum(self.stage_seconds.values())


EventListener = Callable[[ProgressEvent], None]


@dataclass(frozen=True)
class ListenerError:
    """One swallowed listener exception, attributable to its event.

    ``event_kind`` and ``iteration`` locate exactly which notification
    the listener dropped — so a gap in a consumer (a journal missing an
    iteration record, a serving queue missing an event) can be traced to
    the failure that caused it instead of guessing from counts.
    """

    event_kind: str
    iteration: int
    error: Exception


# Process-global source of dataset-version cache tokens (see
# EditState.record_rebuild).
_DATASET_VERSIONS = itertools.count(1)


@dataclass
class EditState:
    """Everything the pipeline stages share while editing one dataset.

    A stage may read any field and write any but the caches, which only
    this class writes (through ``seed_*`` and ``install_population``);
    the conventional flow is documented per field group below.  Fields
    default so a state can be built incrementally by
    :class:`~repro.engine.session.EditSession` or directly in tests.
    """

    # Inputs — fixed for the whole run.
    input_dataset: Dataset = None  # type: ignore[assignment]
    frs: FeedbackRuleSet = None  # type: ignore[assignment]
    algorithm: Callable[[Dataset], Any] = None  # type: ignore[assignment]
    config: Any = None  # FroteConfig
    rng: np.random.Generator = None  # type: ignore[assignment]

    # The evolving dataset and model.  ``active`` is a snapshot of
    # ``active_builder`` when the default stages drive the loop; custom
    # stage chains may assign ``active`` directly and record a rebuild,
    # which drops the builder until :meth:`ensure_builder` re-homes it.
    active: Dataset | None = None
    active_builder: DatasetBuilder | None = None
    model: Any = None
    evaluation: Any = None
    initial_model: Any = None
    initial_evaluation: Any = None
    best_loss: float = float("inf")

    # Budgets (set by ModificationStage, or by the session on warm start).
    eta: int = 0
    quota: int = 0
    max_iteration: int = 0

    # Strategies (built from the config registries unless pre-seeded).
    selector: Any = None
    objective: Callable[[Any, Any], float] | None = None

    # Per-rule working set (Algorithm 2's base populations, their
    # generators and pool tables), installed by :meth:`install_population`
    # for the ``(dataset_version, frs)`` pair in ``population_key`` and
    # stale whenever that pair is not the state's
    # (:meth:`population_is_current`).
    bp: Any = None  # BasePopulation
    generators: list = field(default_factory=list)
    pools: list = field(default_factory=list)  # per-rule base-population tables
    population_key: tuple[int, Any] | None = None

    # Iteration-scoped caches, each keyed on what it was computed from and
    # written only by this class.  ``dataset_version`` moves to a fresh
    # process-globally-unique value whenever ``active`` changes (setup and
    # every accepted batch); the fitted neighbour space is keyed on it,
    # the evaluation on (version, model, frs).  Between rebuilds
    # ``active`` only grows at the end, so the FRS row assignment
    # ``(frs, assign)`` and the model's predictions ``(model, preds)`` are
    # kept as row prefixes: a cache shorter than ``active.n`` covers rows
    # ``[0, len)`` and is extended over ``[len, n)`` on read (see
    # :meth:`record_append`).  The version default is drawn from the
    # same counter so two states never share a token even before setup.
    dataset_version: int = field(default_factory=lambda: next(_DATASET_VERSIONS))
    predictions_cache: tuple[Any, np.ndarray] | None = None
    assign_cache: tuple[FeedbackRuleSet, np.ndarray] | None = None
    neighbor_space_cache: tuple[int, Any] | None = None
    evaluation_cache: tuple[int, Any, Any, Any] | None = None
    stage_seconds: dict[str, float] = field(default_factory=dict)

    # Streaming rule feedback (None unless the session enabled it):
    # ``feedback`` is the run's :class:`~repro.feedback.pipeline
    # .FeedbackPipeline`, drained by ``FeedbackStage`` at iteration
    # boundaries; ``ruleset_log`` accumulates every applied
    # :class:`~repro.feedback.delta.RuleSetDelta` in order — the run's
    # rule timeline.
    feedback: Any = None
    ruleset_log: list = field(default_factory=list)

    # Schema evolution (see repro.engine.migration): the content-hashed
    # :class:`~repro.data.evolution.SchemaVersion` lineage node of the
    # active dataset's schema (``None`` until the first migration — a
    # frozen-schema run never touches it), and the ordered log of applied
    # :class:`~repro.engine.migration.SchemaMigrationRecord` s.
    schema_version: Any = None
    schema_log: list = field(default_factory=list)

    # Transient slots written by one stage, consumed by the next.
    predictions: np.ndarray | None = None
    per_rule_positions: list = field(default_factory=list)
    batch: Any = None  # GeneratedBatch
    per_rule_counts: list = field(default_factory=list)

    # Bookkeeping.
    provenance: RowProvenance | None = None
    history: list[IterationRecord] = field(default_factory=list)
    iteration: int = 0
    run_start_iteration: int = 0  # first iteration of *this* run (warm starts resume later)
    n_added: int = 0
    n_relabelled: int = 0
    n_dropped: int = 0
    warm_start: bool = False
    stopped: bool = False

    # Notifications.
    eval_callback: Callable[[Any], float] | None = None
    listeners: list[EventListener] = field(default_factory=list)
    #: :class:`ListenerError` records (event kind, iteration, exception)
    #: from listeners that raised during :meth:`emit`.  Listener failures
    #: are *isolated*: the engine's own bookkeeping (history append,
    #: iteration advance, cache seeding) must never be corrupted by
    #: observer code, so exceptions are recorded here (and warned about
    #: once per listener) instead of propagating mid-step.
    listener_errors: list[ListenerError] = field(default_factory=list)
    _warned_listener_ids: set = field(default_factory=set, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def done(self) -> bool:
        """Loop guard of Algorithm 1: τ exhausted, quota used, or stopped."""
        return (
            self.stopped
            or self.iteration >= self.max_iteration
            or self.n_added > self.quota
        )

    @property
    def incremental(self) -> bool:
        """Whether the opt-in incremental compute path is enabled
        (``FroteConfig(incremental=True)``): partial model refits and
        prediction caches extended over appended rows.  The always-exact
        paths — O(batch) appends and the extended FRS assignment — are
        on regardless."""
        return bool(getattr(self.config, "incremental", False))

    # ------------------------------------------------------------------ #
    # The two ways ``active`` changes: wholesale, or by appended rows.
    def record_rebuild(self) -> None:
        """Move to a fresh dataset version sharing nothing with the last.

        Called whenever ``active`` is (re)established wholesale — setup,
        modification, warm start, schema migration.  The prediction and
        assignment caches are cleared, everything keyed on the old version
        (fitted neighbour space, evaluation, per-rule working set) misses
        on next use, and the append builder is dropped — a rebuilt
        ``active`` no longer corresponds to the builder's rows, so staging
        onto them would resurrect stale data (the acceptance stage
        re-homes ``active`` through :meth:`ensure_builder` before it
        stages the next batch).
        Versions are drawn from a process-global counter so tokens never
        collide across states — a strategy instance shared between
        sessions (``with_selector`` accepts instances) cannot be handed a
        stale cache hit.
        """
        self.dataset_version = next(_DATASET_VERSIONS)
        self.predictions_cache = None
        self.assign_cache = None
        self.active_builder = None

    def record_append(self) -> None:
        """Move to a fresh dataset version that appended rows to ``active``.

        Unlike :meth:`record_rebuild`, the row caches are kept: every row
        they cover is unchanged, and a read extends them over the rows
        past their length (assignment always; predictions only in
        incremental mode, and only for the model they were computed
        with).  Call *after* ``active`` already holds the appended rows.
        """
        self.dataset_version = next(_DATASET_VERSIONS)

    def accept_batch(self, candidate: Dataset, per_rule_counts: list) -> None:
        """Make ``candidate`` (``active`` plus one batch staged on
        ``active_builder``) the active dataset: commit it, count and
        record its rows as this iteration's synthetic rows, and move to
        the appended version.  The acceptance stage and journal
        fast-forward both accept through here."""
        self.active_builder.commit(candidate.n)
        self.n_added += candidate.n - self.active.n
        self.active = candidate
        self.provenance = self.provenance.extend_synthetic(
            per_rule_counts, self.iteration
        )
        self.record_append()

    def make_builder(self, dataset: Dataset) -> DatasetBuilder:
        """Home ``dataset`` in a fresh append builder under the config's
        storage policy.

        With ``FroteConfig(max_resident_mb=...)`` the builder shards its
        column buffers and spills cold chunks to memory-mapped files
        (the out-of-core path); otherwise storage is dense, exactly as
        before.  A fresh policy (and spill directory) per builder keeps
        residency accounting scoped to the builder's own shards — a
        rebuild drops the old builder, and its spill files vanish once
        no snapshot references them.
        """
        from repro.data.shards import spill_policy_for

        return DatasetBuilder.from_dataset(
            dataset, policy=spill_policy_for(self.config)
        )

    def ensure_builder(self) -> DatasetBuilder:
        """The append builder that owns ``active``, re-homing it if needed.

        ``active`` moves into a fresh builder (:meth:`make_builder`) and
        becomes its snapshot only when there is no builder — setup, a
        rebuild or a schema migration dropped it — or when the builder's
        committed rows no longer match ``active``.  The rows are
        unchanged, so the dataset version and its caches stay valid.
        """
        builder = self.active_builder
        if builder is None or builder.n_rows != self.active.n:
            builder = self.active_builder = self.make_builder(self.active)
            self.active = builder.snapshot()
        return builder

    # ------------------------------------------------------------------ #
    def active_predictions(self) -> np.ndarray:
        """Current model's predictions on the active dataset, memoized.

        The (model, active) pair only changes when a batch is accepted, so
        between acceptances every iteration reuses one prediction pass.
        A hit needs the same model object and a cache covering every
        active row.  A shorter cache of the live model (the acceptance
        stage seeds it over the pre-batch rows) is extended by predicting
        just the appended rows — O(batch) instead of O(n) — when
        :attr:`incremental` is on; row-sliced prediction, while
        mathematically identical, is not guaranteed bit-identical for
        every BLAS-backed model, so the default path keeps the exact
        full pass.
        """
        n = self.active.n
        cached = self.predictions_cache
        if cached is not None and cached[0] is self.model:
            preds = cached[1]
            if len(preds) == n:
                return preds
            if len(preds) < n and self.incremental:
                fresh = self.model.predict(self.active.X.row_slice(len(preds), n))
                preds = np.concatenate([preds, fresh])
                self.predictions_cache = (self.model, preds)
                return preds
        preds = self.model.predict(self.active.X)
        self.predictions_cache = (self.model, preds)
        return preds

    def seed_predictions(self, model: Any, preds: np.ndarray) -> None:
        """Install already-computed predictions of ``model`` on ``active``.

        The acceptance stage predicts every candidate model on the active
        dataset anyway; seeding the cache with that pass means the next
        iteration's selection step starts warm — and in incremental mode
        extends it over the accepted batch instead of re-predicting n
        rows.  A schema migration reinstalls the predictions of a model
        that survived it.
        """
        self.predictions_cache = (model, preds)

    def seed_assignment(self, assign: np.ndarray) -> None:
        """Install an FRS assignment of ``active`` rows ``[0, len)``
        already computed under the current rule set."""
        self.assign_cache = (self.frs, assign)

    def seed_evaluation(self, evaluation: Any) -> None:
        """Install an evaluation already computed for the current
        (dataset version, model, rule set)."""
        self.evaluation_cache = (
            self.dataset_version, self.model, self.frs, evaluation,
        )

    def active_assignment(self) -> np.ndarray:
        """First-match FRS rule assignment over the active dataset, memoized.

        A hit needs the same rule-set object.  Rule coverage masks are
        pure per-row functions of the active table, so a cache shorter
        than ``active.n`` is *extended* by assigning just the rows past
        its length — bit-identical to a full pass, and O(batch · rules)
        instead of O(n · rules).  Full recomputation only happens after
        :meth:`record_rebuild` dropped the cache or the rule set changed.
        """
        n = self.active.n
        cached = self.assign_cache
        if cached is not None and cached[0] is self.frs and len(cached[1]) <= n:
            assign = cached[1]
            if len(assign) == n:
                return assign
            fresh = self.frs.assign(self.active.X.row_slice(len(assign), n))
            assign = np.concatenate([assign, fresh])
        else:
            assign = self.frs.assign(self.active.X)
        self.seed_assignment(assign)
        return assign

    def active_neighbor_space(self) -> Any:
        """The active table fitted into its neighbour space, memoized.

        One :class:`~repro.neighbors.distance.TableNeighborSpace` per
        dataset version, shared by every rule's generator: its scaling and
        the generators' numeric bounds come from one pass over the table.
        """
        cached = self.neighbor_space_cache
        if cached is not None and cached[0] == self.dataset_version:
            return cached[1]
        from repro.neighbors.distance import TableNeighborSpace

        space = TableNeighborSpace().fit(self.active.X)
        self.neighbor_space_cache = (self.dataset_version, space)
        return space

    def evaluate_active(self) -> Any:
        """Current model's evaluation on (active dataset, FRS), memoized.

        Keyed on (dataset version, model identity, rule-set identity), so
        the boundary work of applying a ruleset delta is free when
        nothing changed since the last evaluation, and a delta-refreshed
        evaluation is reused verbatim by :meth:`EditEngine.finalize`.
        The computation routes through the prediction and assignment
        caches exactly like the setup/finalize paths always did — values
        are bit-identical to an uncached call.
        """
        cached = self.evaluation_cache
        if (
            cached is not None
            and cached[0] == self.dataset_version
            and cached[1] is self.model
            and cached[2] is self.frs
        ):
            return cached[3]
        from repro.core.objective import evaluate_predictions

        evaluation = evaluate_predictions(
            self.active_predictions(), self.active, self.frs,
            assign=self.active_assignment(),
        )
        self.seed_evaluation(evaluation)
        return evaluation

    def population_is_current(self) -> bool:
        """Whether the per-rule working set was built for the current
        dataset version and rule set (Algorithm 2 need not rerun)."""
        key = self.population_key
        return key is not None and key[0] == self.dataset_version and key[1] is self.frs

    def install_population(self, bp: Any, generators: list, pools: list) -> None:
        """Install a per-rule working set built for the current dataset
        version and rule set: the base populations, one generator per
        rule, and each rule's population table (``None`` when empty)."""
        self.bp = bp
        self.generators = generators
        self.pools = pools
        self.population_key = (self.dataset_version, self.frs)

    def loss_of(self, evaluation: Any) -> float:
        """Score an evaluation with the configured acceptance objective."""
        if self.objective is None:
            from repro.engine.registry import OBJECTIVES

            self.objective = OBJECTIVES.get(self.config.objective)
        return self.objective(evaluation, self.config)

    def emit(
        self,
        kind: str,
        record: IterationRecord | None = None,
        *,
        ruleset: Any = None,
        schema: Any = None,
    ) -> None:
        """Notify all listeners, isolating any that raise.

        A listener exception must not corrupt engine state mid-step
        (events fire between a history append and the iteration advance,
        and the serving layer fans them out to per-session queues), so
        failures are swallowed into :attr:`listener_errors` and reported
        via a :class:`RuntimeWarning` once per listener; every remaining
        listener still sees the event.
        """
        if not self.listeners:
            return
        event = ProgressEvent(
            kind=kind,
            iteration=self.iteration,
            n_added=self.n_added,
            record=record,
            model=self.model,
            evaluation=self.evaluation,
            stage_seconds=dict(self.stage_seconds) if self.stage_seconds else None,
            ruleset=ruleset,
            schema=schema,
        )
        for listener in self.listeners:
            try:
                listener(event)
            except Exception as exc:
                self.listener_errors.append(
                    ListenerError(kind, self.iteration, exc)
                )
                if id(listener) not in self._warned_listener_ids:
                    self._warned_listener_ids.add(id(listener))
                    warnings.warn(
                        f"progress listener {listener!r} raised "
                        f"{type(exc).__name__}: {exc} (event {kind!r}); "
                        "suppressed — listeners must not affect the edit loop",
                        RuntimeWarning,
                        stacklevel=2,
                    )

    def to_result(self, final_evaluation: Any) -> FroteResult:
        return FroteResult(
            dataset=self.active,
            model=self.model,
            initial_evaluation=self.initial_evaluation,
            final_evaluation=final_evaluation,
            history=self.history,
            n_added=self.n_added,
            iterations=self.iteration,
            n_relabelled=self.n_relabelled,
            n_dropped=self.n_dropped,
            provenance=self.provenance,
            frs=self.frs,
            ruleset_log=list(self.ruleset_log),
            schema_log=list(self.schema_log),
            initial_model=self.initial_model,
        )
