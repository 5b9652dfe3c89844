"""The mode-contract table: every opt-in way of running the edit loop
against the run it must reproduce.

FROTE accepts a synthetic batch only when retraining on it lowers ĵ, so
a mode that changes *how* the loop runs (storage, journaling, serving,
rule delivery, schema machinery, incremental refits, observers) must
make the same accept/reject decisions and build the same dataset as its
reference run.  Each row of :data:`MODES` names the mode, how to run it,
the reference run, and the contract: ``BITWISE`` (every field and byte
equal) or ``envelope(tol)`` (float fields within ``tol``, everything
else equal); under either, the setup model's predictions are equal.
A row may also name fitted parameters of the final model's estimator
that must agree within the contract: ĵ reads only predicted labels,
which a moderate parameter error rarely flips.  One parametrized test
checks every row; run the table alone with ``pytest -k mode_contract``.

A row replaces the "mode equals default" test it encodes; checks the
table cannot express (concurrent tenants, tie-heavy categorical data,
SIGKILL crash-resume, manual stepping) stay next to their modes and
assert with the same :func:`conftest.assert_same_run`.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Callable, NamedTuple

import numpy as np
import pytest

import repro
from repro.data import ShardedTable
from repro.data.evolution import SchemaDelta
from repro.feedback import RuleProposal, ScriptedFeedbackSource
from repro.journal import SessionReplay
from repro.models import GaussianNB, KNeighborsClassifier, make_algorithm
from repro.rules import FeedbackRule, Predicate, clause
from repro.serve import EditService

from conftest import SimulatedCrash, assert_same_run, crash_at_fit, make_mixed_dataset

DATASET = make_mixed_dataset(250)
RULES = ("age < 35 => approve", "income < 40 AND marital = 'single' => deny")
# Disjoint from both RULES: an append delta whenever it arrives.
LATE = FeedbackRule.deterministic(
    clause(Predicate("age", ">", 65.0)), 0, 2, name="late"
)
KNN = make_algorithm(lambda: KNeighborsClassifier(k=3), standardize=False)
NB = make_algorithm(lambda: GaussianNB(), standardize=False)


def session(algorithm="LR", **configure):
    """The default path every row starts from.  Without relabelling,
    batches are both accepted and rejected (the LR run accepts
    iterations 0, 1, 4 and 5), so both decisions are on the rows' path."""
    return (
        repro.edit(DATASET)
        .with_rules(*RULES)
        .with_algorithm(algorithm)
        .configure(tau=6, q=0.5, random_state=4, mod_strategy="none", **configure)
    )


def crash_then_resume(build, tmp_path, at_fit):
    """Journal ``build()``, kill it in fit ``at_fit``, then resume it
    from the journal: the journal writer, the committed-prefix replay and
    the RNG restore are all on the resumed run's path."""
    with pytest.raises(SimulatedCrash):
        build().with_algorithm(crash_at_fit(at_fit)).journaled(tmp_path, name="run").run()
    return build().journaled(tmp_path, name="run").run()


# ------------------------------------------------------------------ #
# Reference runs (each computed once per test process).
@functools.cache
def plain():
    return session().run()


@functools.cache
def scheduled():
    return session().with_scheduled_rules(3, LATE).run()


def rebuild(algorithm):
    return functools.cache(lambda: session(algorithm).run())


# ------------------------------------------------------------------ #
# Modes.
def out_of_core(tmp_path):
    result = session().out_of_core(0.001, shard_rows=32).run()
    assert isinstance(result.dataset.X, ShardedTable)
    assert result.dataset.X.storage_stats()["n_spilled"] > 0  # shards were read back
    return result


def journaled(tmp_path):
    # Fit 4 dies in iteration 2, after two accepted batches committed.
    return crash_then_resume(session, tmp_path, at_fit=4)


def served(**service_options):
    def run(tmp_path):
        async def serve():
            service = EditService(**service_options)
            return await service.submit(session()).run_to_completion()

        return asyncio.run(serve())

    return run


def served_journaled(tmp_path):
    """Serve under a journaled service, kill the session in fit 4, then
    resubmit it to a fresh service: the served start resumes the journal
    the crashed service left, as ``run()`` would."""

    def serve(build):
        async def main():
            async with EditService(journal_dir=str(tmp_path)) as service:
                return await service.submit(build(), name="run").run_to_completion()

        return asyncio.run(main())

    with pytest.raises(SimulatedCrash):
        serve(lambda: session().with_algorithm(crash_at_fit(4)))
    result = serve(session)
    summary = SessionReplay.load(tmp_path / "run").summary()
    assert (summary["runs"], summary["resumes"]) == (1, 1)
    return result


def streamed_session():
    source = ScriptedFeedbackSource([(3, RuleProposal(LATE, source="expert"))])
    return session().with_feedback(source)


def streamed(tmp_path):
    return streamed_session().run()


def streamed_journaled(tmp_path):
    # Fit 6 dies in iteration 4, after the rule delivered at 3 committed.
    return crash_then_resume(streamed_session, tmp_path, at_fit=6)


def unreached_migration(tmp_path):
    return session().with_schema_migration(50, SchemaDelta.add_column("never")).run()


def incremental(algorithm):
    return lambda tmp_path: session(algorithm, incremental=True).run()


def raising_listener(tmp_path):
    def bomb(event):
        raise RuntimeError("listener bug")

    with pytest.warns(RuntimeWarning, match="progress listener"):
        return session().on_event(bomb).run()


# ------------------------------------------------------------------ #
class Contract(NamedTuple):
    name: str
    tol: float


BITWISE = Contract("bitwise", 0.0)


def envelope(tol: float) -> Contract:
    return Contract(f"envelope({tol:g})", tol)


class Mode(NamedTuple):
    name: str
    run: Callable  # tmp_path -> FroteResult
    reference: Callable  # () -> FroteResult
    contract: Contract
    model_params: tuple[str, ...] = ()  # final estimator attributes to compare


MODES = (
    Mode("out-of-core", out_of_core, plain, BITWISE),
    Mode("journaled", journaled, plain, BITWISE),
    Mode("served", served(), plain, BITWISE),
    Mode("served-memory-pool", served(memory_budget_mb=64.0), plain, BITWISE),
    Mode("served-journaled", served_journaled, plain, BITWISE),
    Mode("streamed-feedback", streamed, scheduled, BITWISE),
    Mode("streamed-feedback-journaled", streamed_journaled, scheduled, BITWISE),
    Mode("unreached-schema-migration", unreached_migration, plain, BITWISE),
    Mode("incremental-knn", incremental(KNN), rebuild(KNN), BITWISE),
    Mode(
        "incremental-nb", incremental(NB), rebuild(NB), envelope(1e-9), ("theta_", "var_")
    ),
    Mode("raising-listener", raising_listener, plain, BITWISE),
)


@pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.name)
def test_mode_contract(mode, tmp_path):
    reference = mode.reference()
    # A reference that accepted nothing would let a broken mode pass.
    assert reference.accepted_iterations > 0
    result = mode.run(tmp_path)
    assert_same_run(result, reference, tol=mode.contract.tol)
    # The setup model is a run output too; no mode may alter it afterwards.
    np.testing.assert_array_equal(
        result.initial_model.predict(DATASET.X),
        reference.initial_model.predict(DATASET.X),
    )
    for name in mode.model_params:
        np.testing.assert_allclose(
            getattr(result.model.estimator, name),
            getattr(reference.model.estimator, name),
            rtol=0,
            atol=mode.contract.tol,
            err_msg=name,
        )
