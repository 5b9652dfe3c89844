"""Composable pipeline stages and the :class:`EditEngine` driver.

Algorithm 1 of the paper, decomposed: each phase of the editing loop is a
:class:`Stage` operating on a shared :class:`~repro.engine.state.EditState`,
and :class:`EditEngine` is the driver that runs setup stages once and the
loop stages until the state reports :attr:`~repro.engine.state.EditState
.done`.  Alternative loops — early-stop policies, multi-candidate
acceptance, different generation back-ends — are stage swaps, not forks::

    engine = EditEngine(stages=(
        PreselectStage(),
        SelectionStage(),
        GenerationStage(),
        AcceptanceStage(patience=5),   # stop after 5 straight rejections
    ))
    result = engine.run(state)

The default stage chain reproduces the paper's loop bit-for-bit (same RNG
consumption order), which the session digests in
``perfbench/expected.json`` pin.
"""

from __future__ import annotations

import time
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from repro.core.modification import apply_modification
from repro.core.objective import evaluate_predictions
from repro.core.preselect import preselect_base_population
from repro.core.selection import SelectionContext
from repro.data.dataset import Dataset
from repro.engine.registry import SELECTORS
from repro.engine.state import EditState, IterationRecord


@runtime_checkable
class Stage(Protocol):
    """One phase of the edit pipeline: read and advance the shared state."""

    def run(self, state: EditState) -> None:
        ...


class ModificationStage:
    """Setup: apply the input-dataset choice, train the initial model, and
    fix the run's budgets (η, quota, iteration ceiling).

    On a warm start the modification is skipped — the active dataset
    already reflects a prior run — but the model and budgets are still
    (re)established against it.
    """

    def run(self, state: EditState) -> None:
        cfg = state.config
        if not state.warm_start:
            mod = apply_modification(
                state.input_dataset, state.frs, cfg.mod_strategy, random_state=state.rng
            )
            state.active = mod.dataset
            state.n_relabelled = mod.n_relabelled
            state.n_dropped = mod.n_dropped
            state.provenance = self._initial_provenance(state, mod)
        elif state.active is None:
            state.active = state.input_dataset

        # Budgets are relative to the non-synthetic base, so a resumed
        # session keeps the same quota accounting as a fresh one.
        base = state.active.n - state.n_added
        state.eta = cfg.effective_eta(base)
        state.quota = cfg.oversampling_quota(base)
        state.run_start_iteration = state.iteration
        state.max_iteration = state.iteration + cfg.tau

        # Record the rebuild first (it drops any builder from a prior
        # run), then move the active dataset into a fresh append builder:
        # accepted batches cost O(batch) from here on, and
        # ``state.active`` is always a zero-copy snapshot of the
        # builder's committed rows.  The builder's storage follows the
        # config: dense in RAM by default, sharded-with-spill under
        # ``max_resident_mb`` (the out-of-core path).
        state.record_rebuild("setup")
        state.active_builder = state.make_builder(state.active)
        state.active = state.active_builder.snapshot()
        state.model = state.algorithm(state.active)
        state.initial_model = state.model
        # Routing the initial evaluation through the prediction cache
        # seeds it for the first SelectionStage — one full predict pass
        # at setup instead of two (values identical either way); going
        # through evaluate_active additionally seeds the evaluation
        # cache a feedback delta at iteration 0 would otherwise redo.
        state.evaluation = state.evaluate_active()
        state.best_loss = state.loss_of(state.evaluation)
        state.initial_evaluation = state.evaluation

        if state.selector is None:
            state.selector = SELECTORS.create(cfg.selection)
        state.population_stale = True

    @staticmethod
    def _initial_provenance(state: EditState, mod):
        from repro.core.audit import RowProvenance

        provenance = RowProvenance.for_input(state.input_dataset.n)
        if mod.n_dropped:
            drop_mask = np.zeros(state.input_dataset.n, dtype=bool)
            drop_mask[mod.touched_rows] = True
            provenance = provenance.drop_rows(drop_mask)
        elif mod.n_relabelled:
            provenance.mark_relabelled(
                mod.touched_rows, mod.touched_rules, mod.original_labels
            )
        return provenance


class FeedbackStage:
    """Drain streamed rule feedback at the iteration boundary.

    Prepended to the loop chain by :meth:`EditSession.build_engine` when
    the session enabled feedback — it runs *first*, so a rule delivered
    "at iteration k" is visible to iteration k's preselect/selection
    (the streamed-parity contract's definition of delivery time).  The
    default chain never includes it: sessions without feedback keep the
    seed-identical stage sequence.
    """

    def run(self, state: EditState) -> None:
        if state.feedback is not None:
            state.feedback.drain(state)


class PreselectStage:
    """Recompute per-rule base populations and generators when stale
    (paper Algorithm 2; re-run after every accepted batch)."""

    def run(self, state: EditState) -> None:
        if not state.population_stale:
            return
        from repro.sampling.rule_generation import RuleConstrainedGenerator

        state.bp = preselect_base_population(
            state.active, state.frs, k=state.config.k
        )
        space = state.active_neighbor_space()
        state.generators = [
            RuleConstrainedGenerator(
                rule,
                state.active.X,
                k=state.config.k,
                distance_backend=getattr(state.config, "distance_backend", None),
                space=space,
            )
            for rule in state.frs
        ]
        # Materialize each rule's base-population table once; generation
        # reuses it (and the fitted neighbour index keyed on the dataset
        # version) until the next accepted batch marks the population stale.
        state.pools = [
            state.active.X.take(pop.indices) if pop.size else None
            for pop in state.bp.per_rule
        ]
        state.population_stale = False


class SelectionStage:
    """Pick base instances for this iteration via the selection strategy."""

    def run(self, state: EditState) -> None:
        state.predictions = (
            state.active_predictions()
            if getattr(state.selector, "needs_predictions", True)
            else None
        )
        ctx = SelectionContext(
            state.active,
            state.predictions,
            k=state.config.k,
            rng=state.rng,
            frs=state.frs,
            cache_token=state.dataset_version,
            distance_backend=getattr(state.config, "distance_backend", None),
        )
        state.per_rule_positions = state.selector.select(state.bp, state.eta, ctx)


class GenerationStage:
    """Synthesize one rule-constrained batch from the selected bases."""

    def run(self, state: EditState) -> None:
        from repro.data.table import Table
        from repro.sampling.rule_generation import GeneratedBatch

        tables = []
        labels = []
        counts = [0] * len(state.bp.per_rule)
        for r, (pop, positions, gen) in enumerate(
            zip(state.bp.per_rule, state.per_rule_positions, state.generators)
        ):
            if positions.size == 0 or pop.size == 0:
                continue
            # The default PreselectStage materializes per-rule pools; fall
            # back to building one so custom preselect stages that only set
            # bp/generators (the pre-pools contract) keep working.
            pool = state.pools[r] if r < len(state.pools) else None
            if pool is None:
                pool = state.active.X.take(pop.indices)
            out = gen.generate(
                pool, positions, state.rng, cache_token=state.dataset_version
            )
            if out.n:
                tables.append(out.table)
                labels.append(out.labels)
                counts[r] = out.n
        if not tables:
            state.batch = GeneratedBatch(
                Table.empty(state.active.X.schema), np.empty(0, dtype=np.int64)
            )
        else:
            state.batch = GeneratedBatch(
                Table.concat(tables), np.concatenate(labels)
            )
        state.per_rule_counts = counts


class AcceptanceStage:
    """Retrain on the tentative dataset and keep the batch iff ĵ improves.

    The tentative dataset is *staged* in the state's
    :class:`~repro.data.builder.DatasetBuilder`: its rows are written past
    the committed length, so building the candidate costs O(batch), a
    rejected candidate costs nothing to discard (the next stage call
    overwrites it), and an accepted one is committed by advancing the
    length.  With ``FroteConfig(incremental=True)`` and a model that
    supports the partial-update protocol, the candidate model is an
    in-place O(batch) partial refit (rolled back on rejection) instead of
    a from-scratch ``algorithm(candidate)`` fit.

    Parameters
    ----------
    patience:
        Optional early-stop policy: end the run after this many
        *consecutive* non-accepted iterations (the paper runs all τ).
    """

    def __init__(self, *, patience: int | None = None) -> None:
        if patience is not None and patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience

    def run(self, state: EditState) -> None:
        t0 = time.perf_counter()
        if state.batch.n == 0:
            record = IterationRecord(
                state.iteration, state.best_loss, False, 0, state.n_added
            )
            self._finish_iteration(state, record, "empty-batch", t0)
            return

        candidate, staged = self._stage_candidate(state)

        # Train the candidate model: a partial refit when the incremental
        # path is on and the model supports it, else a full fit.
        partial_token = None
        if state.incremental and getattr(
            state.model, "supports_partial_update", False
        ):
            partial_token = state.model.checkpoint()
            delta = candidate.row_slice(state.active.n, candidate.n)
            cand_model = state.model.partial_update(delta)
        else:
            cand_model = state.algorithm(candidate)

        # ĵ is evaluated over the current active dataset D̂ (line 11); its
        # FRS row assignment is memoized per dataset version, so only the
        # candidate model's prediction pass is fresh work here.
        cand_pred = cand_model.predict(state.active.X)
        cand_eval = evaluate_predictions(
            cand_pred, state.active, state.frs, assign=state.active_assignment()
        )
        cand_loss = state.loss_of(cand_eval)
        improved = (
            cand_loss <= state.best_loss
            if state.config.accept_equal
            else cand_loss < state.best_loss
        )
        external: float | None = None
        if improved:
            if staged:
                state.active_builder.commit(candidate.n)
                state.active = candidate
            else:
                # Concat fallback accepted: re-home the active dataset
                # into a fresh builder (same storage policy as setup) so
                # later batches append in O(batch) again.
                state.active_builder = state.make_builder(candidate)
                state.active = state.active_builder.snapshot()
            state.n_added += state.batch.n
            state.best_loss = cand_loss
            state.model = cand_model
            state.evaluation = cand_eval
            state.provenance = state.provenance.extend_synthetic(
                state.per_rule_counts, state.iteration
            )
            state.population_stale = True
            # The candidate predictions over the pre-batch rows seed the
            # prediction cache before the version moves, so the appended
            # rows are all the next prediction pass has left to cover
            # (incremental mode) — and the append delta keeps the FRS
            # assignment cache extendable in every mode.
            state.seed_predictions(cand_model, cand_pred)
            state.record_append(state.batch.n, "accepted-batch")
            if state.eval_callback is not None:
                external = float(state.eval_callback(state.model))
        elif partial_token is not None:
            # Rejected in-place partial refit: restore the model state.
            state.model.rollback(partial_token)
        record = IterationRecord(
            state.iteration,
            cand_loss,
            improved,
            state.batch.n,
            state.n_added,
            external,
        )
        self._finish_iteration(
            state, record, "accepted" if improved else "rejected", t0
        )

    @staticmethod
    def _stage_candidate(state: EditState) -> tuple[Dataset, bool]:
        """The tentative dataset D̂ ∪ batch, staged without copying D̂.

        Returns ``(candidate, staged)``: ``staged`` says the candidate
        lives in the state's builder (commit on acceptance).  Falls back
        to a concat when no builder owns the active dataset — custom
        stages that assign ``state.active`` directly and record a
        rebuild delta (which drops the builder) keep working, at the
        legacy O(n) cost for that one acceptance.
        """
        builder = state.active_builder
        if builder is not None and builder.n_rows == state.active.n:
            return builder.stage(state.batch.table, state.batch.labels), True
        return (
            Dataset.concat(
                [
                    state.active,
                    Dataset(
                        state.batch.table, state.batch.labels, state.active.label_names
                    ),
                ]
            ),
            False,
        )

    def _finish_iteration(
        self,
        state: EditState,
        record: IterationRecord,
        kind: str,
        t0: float | None = None,
    ) -> None:
        if t0 is not None:
            # Self-timed so the per-iteration event carries a complete
            # stage breakdown (the engine's own measurement of this stage
            # lands only after run() returns, past the emit below).
            state.stage_seconds[type(self).__name__] = time.perf_counter() - t0
        state.history.append(record)
        state.emit(kind, record)
        state.iteration += 1
        if self.patience is not None:
            # Only this run's iterations count: a warm-started session must
            # not stop on rejections inherited from the prior run's history.
            if state.iteration - state.run_start_iteration < self.patience:
                return
            tail = state.history[-self.patience :]
            if not any(r.accepted for r in tail):
                state.stopped = True


def default_setup_stages() -> tuple[Stage, ...]:
    return (ModificationStage(),)


def default_stages() -> tuple[Stage, ...]:
    """The paper's loop: preselect → select → generate → accept."""
    return (
        PreselectStage(),
        SelectionStage(),
        GenerationStage(),
        AcceptanceStage(),
    )


class EditEngine:
    """Drive an edit: run setup stages once, then loop stages until done.

    Parameters
    ----------
    stages:
        Per-iteration stage chain; defaults to :func:`default_stages`.
    setup_stages:
        One-time preparation chain; defaults to
        :func:`default_setup_stages`.
    """

    def __init__(
        self,
        stages: Iterable[Stage] | None = None,
        *,
        setup_stages: Iterable[Stage] | None = None,
    ) -> None:
        self.setup_stages: tuple[Stage, ...] = (
            tuple(setup_stages) if setup_stages is not None else default_setup_stages()
        )
        self.stages: tuple[Stage, ...] = (
            tuple(stages) if stages is not None else default_stages()
        )

    def initialize(self, state: EditState) -> EditState:
        """Run the setup stages and announce the run to listeners."""
        state.stage_seconds = {}
        for stage in self.setup_stages:
            stage.run(state)
        state.emit("started")
        return state

    def step(self, state: EditState) -> EditState:
        """Advance the state by one full pass over the loop stages.

        Each stage is timed into ``state.stage_seconds`` (stage class
        name → seconds, reset every step) so per-iteration progress
        events carry a structured wall-time breakdown — incremental
        savings are observable without a benchmark.
        """
        state.stage_seconds = {}
        for stage in self.stages:
            t0 = time.perf_counter()
            stage.run(state)
            state.stage_seconds[type(stage).__name__] = time.perf_counter() - t0
        return state

    def finalize(self, state: EditState):
        """Score the final dataset, emit ``finished``, package the result.

        Exposed separately from :meth:`run` so external drivers — the
        async serving layer interleaves many sessions at
        :meth:`initialize`/:meth:`step`/:meth:`finalize` granularity —
        can reproduce ``run()`` exactly, one quantum at a time.
        """
        # The delta-aware prediction cache was seeded by the last accepted
        # batch, so this costs one pass over at most the appended rows in
        # incremental mode (and matches evaluate_model exactly otherwise);
        # a ruleset delta applied at the final boundary already left the
        # identical evaluation in the cache.
        final_evaluation = state.evaluate_active()
        # Out-of-loop events carry no stage breakdown (the last
        # iteration's timings already went out with its own event).
        state.stage_seconds = {}
        state.emit("finished")
        return state.to_result(final_evaluation)

    def run(self, state: EditState):
        """Initialize, loop to completion, and package the result."""
        self.initialize(state)
        while not state.done:
            self.step(state)
        return self.finalize(state)
