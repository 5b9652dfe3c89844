"""Tests for the composable pipeline stages and the EditEngine driver."""

import numpy as np
import pytest

from repro.core import FroteConfig
from repro.engine import (
    AcceptanceStage,
    EditEngine,
    EditState,
    GenerationStage,
    ModificationStage,
    PreselectStage,
    SelectionStage,
    default_stages,
)
from repro.models import LogisticRegression, make_algorithm
from repro.utils.rng import check_random_state


@pytest.fixture
def algorithm():
    return make_algorithm(lambda: LogisticRegression(max_iter=200))


def make_state(dataset, frs, algorithm, **config_kwargs):
    config = FroteConfig(**{"tau": 5, "q": 0.5, "eta": 8, "random_state": 0, **config_kwargs})
    return EditState(
        input_dataset=dataset,
        frs=frs,
        algorithm=algorithm,
        config=config,
        rng=check_random_state(config.random_state),
    )


class TestModificationStage:
    def test_prepares_state(self, mixed_dataset, single_rule_frs, algorithm):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        ModificationStage().run(state)
        assert state.active is not None
        assert state.model is not None
        assert state.best_loss < float("inf")
        assert state.initial_evaluation is state.evaluation
        assert state.eta == 8
        assert state.quota == state.config.oversampling_quota(state.active.n)
        assert state.max_iteration == 5
        assert state.selector is not None
        assert state.provenance is not None

    def test_relabel_counts(self, mixed_dataset, single_rule_frs, algorithm):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        ModificationStage().run(state)
        assert state.n_relabelled > 0
        assert state.n_dropped == 0

    def test_warm_start_skips_modification(
        self, mixed_dataset, single_rule_frs, algorithm
    ):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        state.warm_start = True
        ModificationStage().run(state)
        # The active dataset moves into the append builder (a zero-copy
        # snapshot), so compare contents: no rows were relabelled/dropped.
        assert state.active.n == mixed_dataset.n
        np.testing.assert_array_equal(state.active.y, mixed_dataset.y)
        for name in mixed_dataset.X.schema.names:
            np.testing.assert_array_equal(
                state.active.X.column(name), mixed_dataset.X.column(name)
            )
        assert state.n_relabelled == 0

    def test_preseeded_selector_kept(self, mixed_dataset, single_rule_frs, algorithm):
        sentinel = object()
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        state.selector = sentinel
        ModificationStage().run(state)
        assert state.selector is sentinel


class TestPreselectStage:
    def test_computes_populations(self, mixed_dataset, single_rule_frs, algorithm):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        ModificationStage().run(state)
        PreselectStage().run(state)
        assert state.bp is not None
        assert len(state.generators) == len(single_rule_frs)
        assert state.population_is_current()

    def test_noop_when_fresh(self, mixed_dataset, single_rule_frs, algorithm):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        ModificationStage().run(state)
        PreselectStage().run(state)
        bp = state.bp
        PreselectStage().run(state)
        assert state.bp is bp  # not recomputed

    def test_generators_share_one_neighbor_space_per_version(
        self, mixed_dataset, two_rule_frs, algorithm
    ):
        from repro.neighbors import TableNeighborSpace

        state = make_state(mixed_dataset, two_rule_frs, algorithm)
        ModificationStage().run(state)
        PreselectStage().run(state)
        space = state.active_neighbor_space()
        assert all(gen._space is space for gen in state.generators)
        fresh = TableNeighborSpace().fit(state.active.X)
        assert space.bounds_ == fresh.bounds_
        np.testing.assert_array_equal(
            space.encode(state.active.X), fresh.encode(state.active.X)
        )
        state.record_rebuild()  # a new dataset version
        PreselectStage().run(state)
        assert state.active_neighbor_space() is not space
        assert all(gen._space is state.active_neighbor_space() for gen in state.generators)


class TestSelectionGeneration:
    def test_selection_fills_positions(self, mixed_dataset, two_rule_frs, algorithm):
        state = make_state(mixed_dataset, two_rule_frs, algorithm)
        ModificationStage().run(state)
        PreselectStage().run(state)
        SelectionStage().run(state)
        assert len(state.per_rule_positions) == len(two_rule_frs)
        assert sum(p.size for p in state.per_rule_positions) == state.eta

    def test_random_selector_skips_predictions(
        self, mixed_dataset, two_rule_frs, algorithm
    ):
        state = make_state(mixed_dataset, two_rule_frs, algorithm, selection="random")
        ModificationStage().run(state)
        PreselectStage().run(state)
        SelectionStage().run(state)
        assert state.predictions is None

    def test_ip_selector_gets_predictions(
        self, mixed_dataset, two_rule_frs, algorithm
    ):
        state = make_state(mixed_dataset, two_rule_frs, algorithm, selection="ip")
        ModificationStage().run(state)
        PreselectStage().run(state)
        SelectionStage().run(state)
        assert state.predictions is not None

    def test_generation_produces_batch(self, mixed_dataset, two_rule_frs, algorithm):
        state = make_state(mixed_dataset, two_rule_frs, algorithm)
        ModificationStage().run(state)
        PreselectStage().run(state)
        SelectionStage().run(state)
        GenerationStage().run(state)
        assert state.batch.n > 0
        assert sum(state.per_rule_counts) == state.batch.n


class TestAcceptanceStage:
    def test_advances_iteration_and_history(
        self, mixed_dataset, two_rule_frs, algorithm
    ):
        state = make_state(mixed_dataset, two_rule_frs, algorithm)
        engine = EditEngine()
        engine.initialize(state)
        engine.step(state)
        assert state.iteration == 1
        assert len(state.history) == 1

    def test_accept_grows_dataset(self, mixed_dataset, single_rule_frs, algorithm):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        engine = EditEngine()
        engine.initialize(state)
        n0 = state.active.n
        while not state.done:
            engine.step(state)
        accepted = sum(1 for r in state.history if r.accepted)
        assert state.active.n == n0 + state.n_added
        if accepted:
            assert state.n_added > 0

    def test_patience_stops_early(self, mixed_dataset, single_rule_frs, algorithm):
        class RejectEverything:
            """Objective that can never improve after the first evaluation."""

            needs_predictions = False

            def select(self, bp, eta, ctx):
                return [np.empty(0, dtype=np.intp) for _ in bp.per_rule]

        state = make_state(mixed_dataset, single_rule_frs, algorithm, tau=50)
        state.selector = RejectEverything()
        engine = EditEngine(
            stages=(
                PreselectStage(),
                SelectionStage(),
                GenerationStage(),
                AcceptanceStage(patience=3),
            )
        )
        result = engine.run(state)
        assert result.iterations == 3  # stopped long before tau=50
        assert not any(r.accepted for r in result.history)

    def test_patience_validation(self):
        with pytest.raises(ValueError, match="patience"):
            AcceptanceStage(patience=0)


class TestEditEngine:
    def test_default_stages(self):
        engine = EditEngine()
        kinds = [type(s).__name__ for s in engine.stages]
        assert kinds == [
            "PreselectStage",
            "SelectionStage",
            "GenerationStage",
            "AcceptanceStage",
        ]
        assert [type(s).__name__ for s in engine.setup_stages] == ["ModificationStage"]

    def test_run_returns_result(self, mixed_dataset, single_rule_frs, algorithm):
        state = make_state(mixed_dataset, single_rule_frs, algorithm)
        result = EditEngine().run(state)
        assert result.iterations <= 5
        assert result.dataset.n >= mixed_dataset.n - result.n_dropped
        assert len(result.history) == result.iterations

    def test_custom_stage_injection(self, mixed_dataset, single_rule_frs, algorithm):
        """A user stage slotted into the chain sees every iteration."""
        seen = []

        class SpyStage:
            def run(self, state):
                seen.append(state.iteration)

        stages = (SpyStage(),) + default_stages()
        state = make_state(mixed_dataset, single_rule_frs, algorithm, tau=3)
        EditEngine(stages=stages).run(state)
        assert seen == [0, 1, 2]

    def test_custom_preselect_stage_rebuilds_only_when_stale(
        self, mixed_dataset, two_rule_frs, algorithm
    ):
        """A user preselect stage written against the working-set
        contract: skip while ``population_is_current()``, else install
        populations, generators and pools for the current (dataset
        version, rule set).  It rebuilds at the first iteration and after
        each accepted batch, and nowhere else."""
        from repro.core.preselect import preselect_base_population
        from repro.sampling.rule_generation import RuleConstrainedGenerator

        builds = []

        class MinimalPreselect:
            def run(self, state):
                if state.population_is_current():
                    return
                builds.append(state.iteration)
                bp = preselect_base_population(
                    state.active, state.frs, k=state.config.k
                )
                state.install_population(
                    bp,
                    [
                        RuleConstrainedGenerator(rule, state.active.X, k=state.config.k)
                        for rule in state.frs
                    ],
                    [state.active.X.take(pop.indices) for pop in bp.per_rule],
                )

        stages = (MinimalPreselect(),) + default_stages()[1:]
        state = make_state(mixed_dataset, two_rule_frs, algorithm, tau=6, eta=20)
        result = EditEngine(stages=stages).run(state)
        assert result.iterations == 6
        accepted = [rec.accepted for rec in result.history]
        assert True in accepted and False in accepted  # both paths ran
        after_accept = [rec.iteration + 1 for rec in result.history[:-1] if rec.accepted]
        assert builds == [0] + after_accept

    def test_events_emitted(self, mixed_dataset, single_rule_frs, algorithm):
        events = []
        state = make_state(mixed_dataset, single_rule_frs, algorithm, tau=3)
        state.listeners.append(events.append)
        EditEngine().run(state)
        kinds = [e.kind for e in events]
        assert kinds[0] == "started"
        assert kinds[-1] == "finished"
        assert len(kinds) == 2 + 3  # started + one per iteration + finished
        for e in events:
            assert e.model is not None
