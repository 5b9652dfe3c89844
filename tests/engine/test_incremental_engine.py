"""Incremental-vs-rebuild parity for whole edit runs, and stage timings.

The incremental path (``configure(incremental=True)``) must change *when*
work happens, never *what* is computed: a session driven with partial
model refits, staged candidates, and delta-extended caches produces the
same run as the default rebuild path.
"""

import numpy as np
import pytest

import repro
from repro.data import Dataset, Table, make_schema
from repro.models import GaussianNB, KNeighborsClassifier, make_algorithm

SCHEMA = make_schema(
    numeric=["age", "income"], categorical={"marital": ("single", "married")}
)


def make_dataset(n=260, seed=0):
    rng = np.random.default_rng(seed)
    age = rng.uniform(18, 80, size=n)
    income = rng.uniform(10, 200, size=n)
    marital = rng.integers(0, 2, size=n)
    table = Table(SCHEMA, {"age": age, "income": income, "marital": marital})
    y = ((age < 40) & (income > 100)).astype(np.int64)
    noise = rng.uniform(size=n) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(table, y, ("deny", "approve"))


RULES = (
    "age < 35 => approve",
    "income < 40 AND marital = 'single' => deny",
)


def run_session(dataset, algorithm, *, incremental, tau=8, seed=3):
    return (
        repro.edit(dataset)
        .with_rules(*RULES)
        .with_algorithm(algorithm)
        .configure(tau=tau, q=0.5, random_state=seed, incremental=incremental)
        .run()
    )


def assert_same_run(a, b, *, loss_exact=True):
    assert a.n_added == b.n_added
    assert a.iterations == b.iterations
    assert [r.accepted for r in a.history] == [r.accepted for r in b.history]
    assert [r.n_generated for r in a.history] == [r.n_generated for r in b.history]
    if loss_exact:
        assert [r.candidate_loss for r in a.history] == [
            r.candidate_loss for r in b.history
        ]
    assert a.dataset.n == b.dataset.n
    np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
    for name in a.dataset.X.schema.names:
        np.testing.assert_array_equal(
            a.dataset.X.column(name), b.dataset.X.column(name)
        )


class TestIncrementalRunParity:
    def test_knn_incremental_bit_identical(self):
        """KNN partial refits are exact, so whole runs match bit-for-bit."""
        dataset = make_dataset()
        algorithm = make_algorithm(
            lambda: KNeighborsClassifier(k=3), standardize=False
        )
        rebuild = run_session(dataset, algorithm, incremental=False)
        incremental = run_session(dataset, algorithm, incremental=True)
        assert rebuild.accepted_iterations > 0  # the comparison must bite
        assert_same_run(rebuild, incremental)
        assert (
            incremental.final_evaluation.j_weighted()
            == rebuild.final_evaluation.j_weighted()
        )

    def test_brute_knn_bit_identical_on_tie_heavy_categorical_data(self):
        """The default KNN index (brute force) is tie-proof: same matrix ⇒
        same distance matrix ⇒ same top-k, so even all-categorical data
        (exact distance ties everywhere under the overlap metric) runs
        identically."""
        from repro.datasets import load_dataset

        data = load_dataset("car", n=300, random_state=0)
        algorithm = make_algorithm(
            lambda: KNeighborsClassifier(k=3), standardize=False
        )
        def run(incremental):
            return (
                repro.edit(data)
                .with_rules("buying = 'low' AND safety = 'high' => acc")
                .with_algorithm(algorithm)
                .configure(tau=6, q=0.5, eta=10, random_state=3)
                .incremental(incremental)
                .run()
            )
        rebuild, incremental = run(False), run(True)
        assert rebuild.accepted_iterations > 0
        assert_same_run(rebuild, incremental)

    def test_nb_incremental_matches_within_rounding(self):
        """NB folds exact moments; only float association differs."""
        dataset = make_dataset(seed=1)
        algorithm = make_algorithm(lambda: GaussianNB(), standardize=False)
        rebuild = run_session(dataset, algorithm, incremental=False)
        incremental = run_session(dataset, algorithm, incremental=True)
        assert_same_run(rebuild, incremental, loss_exact=False)
        for ra, rb in zip(rebuild.history, incremental.history):
            assert ra.candidate_loss == pytest.approx(rb.candidate_loss, abs=1e-9)

    def test_unsupported_model_incremental_is_noop(self):
        """Models without the protocol silently use the rebuild path."""
        dataset = make_dataset(seed=2)
        rebuild = run_session(dataset, "LR", incremental=False)
        incremental = run_session(dataset, "LR", incremental=True)
        assert_same_run(rebuild, incremental)

    def test_resume_from_prior_result(self):
        """Warm starts keep working on top of builder-backed actives."""
        dataset = make_dataset(seed=4)
        algorithm = make_algorithm(
            lambda: KNeighborsClassifier(k=3), standardize=False
        )
        first = run_session(dataset, algorithm, incremental=True, tau=4)
        resumed = (
            repro.edit(dataset)
            .with_rules(*RULES)
            .with_algorithm(algorithm)
            .configure(tau=3, q=0.5, random_state=9, incremental=True)
            .resume_from(first)
            .run()
        )
        assert resumed.iterations == first.iterations + 3
        assert resumed.n_added >= first.n_added


class TestCustomRebuildStages:
    def test_mid_loop_mutation_is_not_resurrected_by_the_builder(self):
        """A custom stage that replaces ``active`` (same row count) and
        records a rebuild must not have its mutation silently reverted
        by acceptance staging onto the old builder rows."""
        from repro.engine import (
            AcceptanceStage,
            GenerationStage,
            PreselectStage,
            SelectionStage,
        )

        class FlipFirstLabel:
            def run(self, state):
                y = state.active.y.copy()
                y[0] = 1
                state.active = Dataset(state.active.X, y, state.active.label_names)
                state.record_rebuild("flip-first-label")

        dataset = make_dataset(seed=7)
        result = (
            repro.edit(dataset)
            .with_rules(*RULES)
            .with_algorithm("LR")
            .configure(tau=5, q=0.5, random_state=1, accept_equal=True)
            .with_stages(
                PreselectStage(),
                SelectionStage(),
                GenerationStage(),
                FlipFirstLabel(),
                AcceptanceStage(),
            )
            .run()
        )
        assert result.accepted_iterations >= 1
        assert result.dataset.y[0] == 1  # the mutation survived acceptance


class TestStageTimings:
    def test_events_carry_stage_seconds(self):
        dataset = make_dataset(seed=5)
        events = []
        (
            repro.edit(dataset)
            .with_rules(*RULES)
            .with_algorithm("LR")
            .configure(tau=3, q=0.5, random_state=0)
            .on_iteration(events.append)
            .run()
        )
        assert events
        for event in events:
            assert event.stage_seconds is not None
            assert set(event.stage_seconds) >= {
                "PreselectStage",
                "SelectionStage",
                "GenerationStage",
                "AcceptanceStage",
            }
            assert all(s >= 0 for s in event.stage_seconds.values())
            assert event.iteration_seconds == sum(event.stage_seconds.values())

    def test_started_event_has_no_timings(self):
        dataset = make_dataset(seed=6)
        events = []
        (
            repro.edit(dataset)
            .with_rules(*RULES)
            .with_algorithm("LR")
            .configure(tau=2, q=0.5, random_state=0)
            .on_event(events.append)
            .run()
        )
        started = [e for e in events if e.kind == "started"]
        assert started and started[0].stage_seconds is None
        assert started[0].iteration_seconds is None