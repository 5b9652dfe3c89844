"""Tests for one run's three models (``execute_run``)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import FroteConfig
from repro.core.modification import apply_modification
from repro.core.objective import evaluate_model
from repro.experiments import build_context, prepare_run
from repro.experiments.runner import RunMetrics, edit_session, execute_run


@pytest.fixture(scope="module")
def run_inputs():
    ctx = build_context("car", "LR", n=240, random_state=0)
    prepared = prepare_run(ctx, frs_size=2, tcf=0.2, rng=np.random.default_rng(3))
    assert prepared is not None
    return ctx, prepared


def _counted(ctx):
    """``ctx`` with an algorithm that records the row count of each fit."""
    fits = []

    def algorithm(dataset):
        fits.append(dataset.n)
        return ctx.algorithm(dataset)

    return replace(ctx, algorithm=algorithm), fits


@pytest.mark.parametrize("mod_strategy", ["none", "relabel", "drop"])
def test_trains_only_the_models_the_session_lacks(run_inputs, mod_strategy):
    """The session's setup model is the modified-data model, and the
    initial model too when nothing was modified, so a run fits the
    unmodified training set only when the modification changed it; each
    metric still equals a fresh fit's."""
    ctx, prepared = run_inputs
    config = FroteConfig(tau=2, eta=10, mod_strategy=mod_strategy, random_state=5)
    counted, run_fits = _counted(ctx)
    run, result = execute_run(counted, prepared, config=config)
    alone, session_fits = _counted(ctx)
    edit_session(prepared.train, alone.algorithm, prepared.frs, config).run()
    changed = result.n_relabelled + result.n_dropped > 0
    assert changed == (mod_strategy != "none")
    assert len(run_fits) == len(session_fits) + changed

    def fresh(dataset) -> RunMetrics:
        model = ctx.algorithm(dataset)
        return RunMetrics.from_evaluation(evaluate_model(model, prepared.test, prepared.frs))

    modified = apply_modification(
        prepared.train, prepared.frs, mod_strategy, random_state=config.random_state
    ).dataset
    assert run.initial == fresh(prepared.train)
    assert run.modified == fresh(modified)


def test_selection_kind_fits_the_unmodified_model_once(monkeypatch):
    """A ``selection`` run compares strategies on one prepared run, so the
    unmodified training set is fitted once, not once per strategy."""
    from repro.experiments import kinds
    from repro.experiments.spec import RunSpec

    spec = RunSpec(
        experiment="selection", dataset="car", model="LR", frs_size=2,
        tcf=0.2, run=0, seed=11, context_seed=0, n=240,
        config={"mod_strategy": "relabel", "tau": 2, "eta": 10},
        params={"strategies": "random,ip"},
    )
    prepared = kinds.prepared_for(spec)
    assert prepared is not None
    ctx = kinds.shared_context(spec)
    counted, run_fits = _counted(ctx)
    monkeypatch.setattr(kinds, "shared_context", lambda _spec: counted)
    record = kinds.run_selection_kind(spec)
    assert {"random_delta_j", "ip_delta_j"} <= set(record)

    alone, session_fits = _counted(ctx)
    changed = False
    for strategy in ("random", "ip"):
        config = kinds.frote_config_for(spec, selection=strategy)
        result = edit_session(prepared.train, alone.algorithm, prepared.frs, config).run()
        changed |= result.n_relabelled > 0
    assert changed
    assert len(run_fits) == len(session_fits) + 1
