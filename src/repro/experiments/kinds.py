"""Run kinds: the measurable executors behind every experiment spec.

A *run kind* is a pure function ``RunSpec -> record | None`` registered by
name in :data:`RUN_KINDS` (an engine-style registry with did-you-mean
errors).  The kind owns everything inside one run — context, FRS draw,
split, model training, metrics — and derives every seed from the spec
alone, which is the invariant that makes executors interchangeable: any
process executing the same ``RunSpec`` produces the same record.

Built-in kinds cover the paper's protocols:

* ``"frote"`` — the three-model run behind Figures 2/3 and the ablations;
* ``"trace"`` — Figure 9's per-iteration augmentation progress;
* ``"overlay"`` — Table 2's FROTE vs Overlay-Soft/Hard comparison;
* ``"selection"`` — Tables 3/4/5's matched random-vs-IP comparison;
* ``"probabilistic"`` — Table 6's wrong-rule probabilistic protocol.

Register your own with :func:`register_run_kind` and reference it from an
:class:`~repro.experiments.ExperimentSpec` — no core edits required.
"""

from __future__ import annotations

from functools import lru_cache

from repro.core.config import FroteConfig
from repro.core.objective import evaluate_model, evaluate_predictions
from repro.data.split import coverage_aware_split
from repro.datasets import DATASETS
from repro.engine.registry import InfoRegistry
from repro.experiments.runner import edit_session, execute_run, unmodified_model
from repro.experiments.setup import (
    ExperimentContext,
    build_context,
    prepare_run,
    probabilistic_variant,
)
from repro.experiments.spec import RunSpec, derive_seed
from repro.metrics.classification import accuracy_score
from repro.rules.ruleset import FeedbackRuleSet, draw_conflict_free
from repro.utils.rng import check_random_state

#: Registry of run kinds; ``RunSpec.experiment`` names an entry here.
RUN_KINDS: InfoRegistry = InfoRegistry("run kind")


def register_run_kind(name: str, fn=None, *, overwrite: bool = False):
    """Register a ``RunSpec -> record | None`` executor (decorator form)."""
    return RUN_KINDS.register(name, fn, overwrite=overwrite)


# --------------------------------------------------------------------- #
# Shared per-process machinery
# --------------------------------------------------------------------- #
@lru_cache(maxsize=8)
def _cached_context(
    dataset: str, model: str, n: int | None, context_seed: int
) -> ExperimentContext:
    """Per-process cache of (dataset, model) contexts.

    Contexts are deterministic in their arguments, so worker processes
    rebuild identical contexts independently — the cache only avoids
    repeated work within a process, it never affects results.
    """
    return build_context(dataset, model, n=n, random_state=context_seed)


def shared_context(spec: RunSpec) -> ExperimentContext:
    """The (dataset, model, n, context_seed) context for ``spec``."""
    return _cached_context(spec.dataset, spec.model, spec.n, spec.context_seed)


def clear_context_cache() -> None:
    """Drop all per-process caches (tests and long-lived sessions)."""
    _cached_context.cache_clear()
    _cached_prepared.cache_clear()


def frote_config_for(spec: RunSpec, **overrides) -> FroteConfig:
    """Build the run's :class:`FroteConfig` from spec overrides.

    Precedence: explicit ``overrides`` > ``spec.config`` > the dataset
    registry's per-dataset η default > ``FroteConfig`` defaults.  The
    FROTE loop's ``random_state`` is derived from the run seed unless the
    spec pins one explicitly.
    """
    kwargs = spec.config_mapping
    kwargs.update(overrides)
    if "eta" not in kwargs and spec.dataset in DATASETS:
        kwargs["eta"] = DATASETS[spec.dataset].eta
    kwargs.setdefault("random_state", derive_seed(spec.seed, "frote"))
    return FroteConfig(**kwargs)


def _prepare_rng(spec: RunSpec):
    return check_random_state(derive_seed(spec.seed, "prepare"))


@lru_cache(maxsize=8)
def _cached_prepared(
    dataset: str, model: str, n: int | None, context_seed: int,
    frs_size: int, tcf: float, seed: int,
):
    """Per-process cache of prepared runs (FRS draw + split).

    Sweep variants of a run share all these coordinates (seed derivation
    is sweep-blind), so e.g. a 4-value sweep reuses one draw instead of
    recomputing four identical ones.  Deterministic in its key — purely a
    per-process work saver, like :func:`_cached_context`.
    """
    ctx = _cached_context(dataset, model, n, context_seed)
    rng = check_random_state(derive_seed(seed, "prepare"))
    return prepare_run(ctx, frs_size=frs_size, tcf=tcf, rng=rng)


def prepared_for(spec: RunSpec):
    """The (cached) prepared run for ``spec``, or ``None`` for a dry draw."""
    return _cached_prepared(
        spec.dataset, spec.model, spec.n, spec.context_seed,
        spec.frs_size, spec.tcf, spec.seed,
    )


def _coords(spec: RunSpec) -> dict:
    """The grid coordinates every record carries."""
    return {
        "dataset": spec.dataset,
        "model": spec.model,
        "frs_size": spec.frs_size,
        "tcf": spec.tcf,
        "run": spec.run,
        "seed": spec.seed,
    }


# --------------------------------------------------------------------- #
# "frote": initial / modified / final three-model run (Figs 2-3, ablations)
# --------------------------------------------------------------------- #
@register_run_kind("frote")
def run_frote_kind(spec: RunSpec) -> dict | None:
    ctx = shared_context(spec)
    prepared = prepared_for(spec)
    if prepared is None:
        return None
    run, _ = execute_run(ctx, prepared, config=frote_config_for(spec))
    return {
        **_coords(spec),
        "j_initial": run.initial.j_weighted,
        "j_mod": run.modified.j_weighted,
        "j_final": run.final.j_weighted,
        "mod_improvement": run.modified.j_weighted - run.initial.j_weighted,
        "final_improvement": run.delta_j_vs_modified,
        "delta_j": run.delta_j,
        "delta_mra": run.delta_mra,
        "delta_f1": run.delta_f1,
        "n_added": run.n_added,
        "added_fraction": run.added_fraction,
        "iterations": run.iterations,
        "accepted": run.accepted,
        "tcf_actual": run.tcf,
    }


# --------------------------------------------------------------------- #
# "trace": per-iteration augmentation progress (Fig 9)
# --------------------------------------------------------------------- #
@register_run_kind("trace")
def run_trace_kind(spec: RunSpec) -> dict | None:
    """Fig 9's progress trace, optionally with wall-time instrumentation.

    Passing ``params={"timings": true}`` adds ``iteration_seconds`` (one
    entry per loop iteration) and ``stage_seconds`` (pipeline stage →
    total seconds) from the engine's per-stage timers — the incremental
    core's savings, observable per run.  Timing fields are wall-clock
    and therefore *not* covered by the executor-interchangeability
    invariant (everything else in the record is).
    """
    ctx = shared_context(spec)
    prepared = prepared_for(spec)
    if prepared is None:
        return None
    frs = prepared.frs
    test = prepared.test

    def score(model) -> float:
        return evaluate_model(model, test, frs).j_weighted()

    want_timings = bool(spec.params_mapping.get("timings", False))
    iteration_seconds: list[float] = []
    stage_totals: dict[str, float] = {}

    def collect_timing(event) -> None:
        if event.stage_seconds is None:
            return
        iteration_seconds.append(event.iteration_seconds)
        for stage, seconds in event.stage_seconds.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds

    session = edit_session(
        prepared.train, ctx.algorithm, frs, frote_config_for(spec)
    ).track_metric(score)
    if want_timings:
        session.on_iteration(collect_timing)
    result = session.run()
    initial_model = unmodified_model(result, ctx.algorithm, prepared.train)
    record = {
        **_coords(spec),
        "n_added": [0]
        + [rec.n_added_total for rec in result.history if rec.accepted],
        "j_test": [score(initial_model)]
        + [
            rec.external_score
            for rec in result.history
            if rec.accepted and rec.external_score is not None
        ],
    }
    if want_timings:
        record["iteration_seconds"] = iteration_seconds
        record["stage_seconds"] = stage_totals
    return record


# --------------------------------------------------------------------- #
# "overlay": FROTE vs Overlay-Soft/Hard deltas (Table 2)
# --------------------------------------------------------------------- #
@register_run_kind("overlay")
def run_overlay_kind(spec: RunSpec) -> dict | None:
    from repro.baselines.overlay import HARD, SOFT, Overlay

    ctx = shared_context(spec)
    rng = _prepare_rng(spec)
    frs = draw_conflict_free(
        list(ctx.rule_pool), spec.frs_size, ctx.dataset.X.schema, rng
    )
    if frs is None:
        return None
    coverage = frs.coverage_mask(ctx.dataset.X)
    split = coverage_aware_split(
        ctx.dataset,
        coverage,
        tcf=spec.tcf,
        outside_test_fraction=spec.params_mapping.get("outside_test_fraction", 0.5),
        random_state=rng,
    )
    # The session runs first, so that its setup model can serve as the
    # base model when its modification changed nothing.
    frote_result = edit_session(
        split.train, ctx.algorithm, frs, frote_config_for(spec)
    ).run()
    model = unmodified_model(frote_result, ctx.algorithm, split.train)
    test = split.test
    base_eval = evaluate_predictions(model.predict(test.X), test, frs)

    overlay_evals = {}
    for mode in (SOFT, HARD):
        overlay = Overlay(model, frs, split.train.X, mode=mode)
        overlay_evals[mode] = evaluate_predictions(overlay.predict(test.X), test, frs)

    frote_eval = evaluate_predictions(frote_result.model.predict(test.X), test, frs)

    def deltas(ev) -> dict:
        return {
            "delta_j": ev.j_weighted() - base_eval.j_weighted(),
            "delta_mra": ev.mra - base_eval.mra,
            "delta_f1": ev.f1_outside - base_eval.f1_outside,
        }

    return {
        **_coords(spec),
        "overlay_soft": deltas(overlay_evals[SOFT]),
        "overlay_hard": deltas(overlay_evals[HARD]),
        "frote": deltas(frote_eval),
    }


# --------------------------------------------------------------------- #
# "selection": matched random-vs-IP strategy comparison (Tables 3/4/5)
# --------------------------------------------------------------------- #
@register_run_kind("selection")
def run_selection_kind(spec: RunSpec) -> dict | None:
    ctx = shared_context(spec)
    prepared = prepared_for(spec)
    if prepared is None:
        return None
    record = dict(_coords(spec))
    strategies = spec.params_mapping.get("strategies", "random,ip").split(",")
    initial = None  # the unmodified model's metrics, one fit per run
    for strategy in strategies:
        config = frote_config_for(spec, selection=strategy)
        run, _ = execute_run(ctx, prepared, config=config, initial=initial)
        initial = run.initial
        record.update(
            {
                f"{strategy}_delta_j": run.delta_j,
                f"{strategy}_delta_mra": run.delta_mra,
                f"{strategy}_delta_f1": run.delta_f1,
                f"{strategy}_added_fraction": run.added_fraction,
            }
        )
    return record


# --------------------------------------------------------------------- #
# "probabilistic": wrong-rule robustness (Table 6)
# --------------------------------------------------------------------- #
@register_run_kind("probabilistic")
def run_probabilistic_kind(spec: RunSpec) -> dict | None:
    ctx = shared_context(spec)
    prepared = prepared_for(spec)
    if prepared is None:
        return None
    p = float(spec.params_mapping.get("p", 1.0))
    marginal = ctx.dataset.class_counts().astype(float)
    marginal /= marginal.sum()

    base_rule = prepared.frs[0]
    test = prepared.test

    rule_p = probabilistic_variant(base_rule, p, marginal)
    frs_p = FeedbackRuleSet((rule_p,))
    # tcf=0: relabel/drop are inapplicable — no covered training rows.
    result = edit_session(
        prepared.train, ctx.algorithm, frs_p,
        frote_config_for(spec, mod_strategy="none"),
    ).run()
    cov_mask = base_rule.coverage_mask(test.X)
    init_pred = unmodified_model(result, ctx.algorithm, prepared.train).predict(test.X)
    init_mra = accuracy_score(test.y[cov_mask], init_pred[cov_mask])
    init_eval = evaluate_predictions(init_pred, test, prepared.frs)
    pred = result.model.predict(test.X)
    # "Rule not in effect": agreement w.r.t. original labels in coverage.
    mra_orig = accuracy_score(test.y[cov_mask], pred[cov_mask])
    ev = evaluate_predictions(pred, test, prepared.frs)
    return {
        **_coords(spec),
        "p": p,
        "delta_mra": mra_orig - init_mra,
        "delta_j": ev.j_weighted() - init_eval.j_weighted(),
    }
