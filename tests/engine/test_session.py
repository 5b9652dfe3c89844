"""Tests for the EditSession fluent façade (repro.edit)."""

import numpy as np
import pytest

import repro
from repro.engine import SELECTORS, EditSession, register_selector
from repro.models import LogisticRegression, make_algorithm


@pytest.fixture
def algorithm():
    return make_algorithm(lambda: LogisticRegression(max_iter=200))


def base_session(dataset, frs, algorithm, **cfg):
    return (
        repro.edit(dataset)
        .with_rules(frs)
        .with_algorithm(algorithm)
        .configure(**{"tau": 5, "q": 0.5, "eta": 8, "random_state": 0, **cfg})
    )


class TestBuilder:
    def test_edit_returns_session(self, mixed_dataset):
        assert isinstance(repro.edit(mixed_dataset), EditSession)

    def test_copy_shares_no_container(self, mixed_dataset, single_rule_frs, algorithm):
        from repro.data.evolution import SchemaDelta
        from repro.feedback import ScriptedFeedbackSource

        session = (
            base_session(mixed_dataset, single_rule_frs, algorithm)
            .on_event(lambda event: None)
            .with_feedback(ScriptedFeedbackSource([]), quorum=2)
            .with_scheduled_rules(2, "age > 70 => deny")
            .with_schema_migration(3, SchemaDelta.add_column("tenure"))
        )
        twin = session.copy()
        assert type(twin) is EditSession

        def walk(a, b, path):
            if isinstance(a, (list, dict, set)):
                assert a is not b, path
                assert a == b, path
            if isinstance(a, dict):
                for key in a:
                    walk(a[key], b[key], f"{path}[{key!r}]")
            elif isinstance(a, list):
                for i, (x, y) in enumerate(zip(a, b)):
                    walk(x, y, f"{path}[{i}]")

        containers = 0
        for name, value in vars(twin).items():
            containers += isinstance(value, (list, dict, set))
            walk(value, vars(session)[name], name)
        assert containers >= 7
        assert vars(twin).keys() == vars(session).keys()
        twin.configure(tau=9).with_rules("age < 20 => approve")
        assert session._config_kwargs["tau"] == 5
        assert len(session._rules) == 1

    def test_chaining_returns_self(self, mixed_dataset, single_rule_frs, algorithm):
        s = repro.edit(mixed_dataset)
        assert s.with_rules(single_rule_frs) is s
        assert s.with_algorithm(algorithm) is s
        assert s.configure(tau=3) is s
        assert s.on_iteration(lambda e: None) is s

    def test_requires_algorithm(self, mixed_dataset, single_rule_frs):
        with pytest.raises(ValueError, match="algorithm"):
            repro.edit(mixed_dataset).with_rules(single_rule_frs).run()

    def test_requires_rules(self, mixed_dataset, algorithm):
        with pytest.raises(ValueError, match="rules"):
            repro.edit(mixed_dataset).with_algorithm(algorithm).run()

    def test_algorithm_by_name(self, mixed_dataset, single_rule_frs):
        result = (
            repro.edit(mixed_dataset)
            .with_rules(single_rule_frs)
            .with_algorithm("LR")
            .configure(tau=2, eta=5, random_state=0)
            .run()
        )
        assert result.iterations <= 2

    def test_bad_algorithm_type(self, mixed_dataset):
        with pytest.raises(TypeError, match="callable"):
            repro.edit(mixed_dataset).with_algorithm(42)

    def test_bad_rule_type(self, mixed_dataset):
        with pytest.raises(TypeError, match="feedback rule"):
            repro.edit(mixed_dataset).with_rules(3.14)

    def test_config_validated_at_run(self, mixed_dataset, single_rule_frs, algorithm):
        session = base_session(mixed_dataset, single_rule_frs, algorithm, tau=-1)
        with pytest.raises(ValueError, match="tau"):
            session.run()


class TestIncrementalRules:
    def test_rule_strings_parsed(self, mixed_dataset, algorithm):
        result = (
            repro.edit(mixed_dataset)
            .with_rules("age < 35 => approve")
            .with_algorithm(algorithm)
            .configure(tau=2, eta=5, random_state=0)
            .run()
        )
        assert result.iterations > 0

    def test_multi_expert_accumulation(self, mixed_dataset, two_rule_frs, algorithm):
        """Each with_rules call appends — two experts, one session."""
        r1, r2 = list(two_rule_frs)
        session = repro.edit(mixed_dataset).with_algorithm(algorithm)
        session.with_rules(r1)  # expert A
        session.with_rules(r2)  # expert B, later
        state = session.configure(tau=2, eta=5, random_state=0).build_state()
        assert len(state.frs) == 2

    def test_mixed_rule_forms(self, mixed_dataset, two_rule_frs, young_rule, algorithm):
        session = (
            repro.edit(mixed_dataset)
            .with_algorithm(algorithm)
            .with_rules(two_rule_frs, young_rule, "income > 150 => deny")
            .configure(tau=1, eta=5, random_state=0)
        )
        assert len(session.build_state().frs) == 4


class TestEvents:
    def test_on_iteration(self, mixed_dataset, single_rule_frs, algorithm):
        events = []
        result = (
            base_session(mixed_dataset, single_rule_frs, algorithm)
            .on_iteration(events.append)
            .run()
        )
        assert len(events) == result.iterations
        assert all(e.record is not None for e in events)

    def test_on_accept_only_accepted(self, mixed_dataset, single_rule_frs, algorithm):
        events = []
        result = (
            base_session(mixed_dataset, single_rule_frs, algorithm)
            .on_accept(events.append)
            .run()
        )
        assert len(events) == result.accepted_iterations
        assert all(e.accepted for e in events)

    def test_on_event_sees_lifecycle(self, mixed_dataset, single_rule_frs, algorithm):
        kinds = []
        base_session(mixed_dataset, single_rule_frs, algorithm).on_event(
            lambda e: kinds.append(e.kind)
        ).run()
        assert kinds[0] == "started" and kinds[-1] == "finished"

    def test_track_metric_recorded(self, mixed_dataset, single_rule_frs, algorithm):
        result = (
            base_session(mixed_dataset, single_rule_frs, algorithm)
            .track_metric(lambda model: 0.75)
            .run()
        )
        for rec in result.history:
            if rec.accepted:
                assert rec.external_score == 0.75
            else:
                assert rec.external_score is None


class TestWarmStart:
    def test_resume_continues(self, mixed_dataset, single_rule_frs, algorithm):
        first = base_session(mixed_dataset, single_rule_frs, algorithm, tau=3).run()
        resumed = (
            base_session(mixed_dataset, single_rule_frs, algorithm, tau=3)
            .resume_from(first)
            .run()
        )
        assert resumed.iterations == first.iterations + 3
        assert len(resumed.history) == len(first.history) + 3
        assert resumed.n_added >= first.n_added
        assert resumed.dataset.n >= first.dataset.n
        # prior history is preserved verbatim at the front
        assert resumed.history[: len(first.history)] == first.history

    def test_resume_patience_ignores_prior_rejections(
        self, mixed_dataset, single_rule_frs, algorithm
    ):
        """A warm-started run must not early-stop on rejections inherited
        from the prior run's history."""
        from repro.engine import (
            AcceptanceStage,
            GenerationStage,
            PreselectStage,
            SelectionStage,
        )

        class NeverSelect:
            needs_predictions = False

            def select(self, bp, eta, ctx):
                return [np.empty(0, dtype=np.intp) for _ in bp.per_rule]

        # Prior run: 4 straight rejections (empty batches).
        first = (
            base_session(mixed_dataset, single_rule_frs, algorithm, tau=4)
            .with_selector(NeverSelect())
            .run()
        )
        assert not any(r.accepted for r in first.history)

        # Resumed run with patience=2 still gets its own 2 fresh attempts.
        resumed = (
            base_session(mixed_dataset, single_rule_frs, algorithm, tau=10)
            .with_selector(NeverSelect())
            .with_stages(
                PreselectStage(),
                SelectionStage(),
                GenerationStage(),
                AcceptanceStage(patience=2),
            )
            .resume_from(first)
            .run()
        )
        assert resumed.iterations == first.iterations + 2

    def test_selector_factory_fresh_per_run(
        self, mixed_dataset, single_rule_frs, algorithm
    ):
        built = []

        class CountingSelector:
            needs_predictions = False

            def __init__(self):
                built.append(self)

            def select(self, bp, eta, ctx):
                return [np.empty(0, dtype=np.intp) for _ in bp.per_rule]

        session = base_session(
            mixed_dataset, single_rule_frs, algorithm, tau=2
        ).with_selector(CountingSelector)  # factory form (the class itself)
        session.run()
        session.run()
        assert len(built) == 2  # a fresh instance per run

    def test_resume_does_not_remodify(self, mixed_dataset, single_rule_frs, algorithm):
        first = base_session(mixed_dataset, single_rule_frs, algorithm, tau=2).run()
        resumed = (
            base_session(mixed_dataset, single_rule_frs, algorithm, tau=2)
            .resume_from(first)
            .run()
        )
        # relabel counts carry over, not re-applied
        assert resumed.n_relabelled == first.n_relabelled


class TestPluggableStrategies:
    def test_custom_selector_instance(self, mixed_dataset, single_rule_frs, algorithm):
        calls = []

        class FirstK:
            needs_predictions = False

            def select(self, bp, eta, ctx):
                calls.append(eta)
                return [
                    np.arange(min(eta, pop.size), dtype=np.intp)
                    for pop in bp.per_rule
                ]

        result = (
            base_session(mixed_dataset, single_rule_frs, algorithm, tau=2)
            .with_selector(FirstK())
            .run()
        )
        assert calls and result.iterations == 2

    def test_registered_selector_via_config_name(
        self, mixed_dataset, single_rule_frs, algorithm
    ):
        """The acceptance-criterion scenario: a strategy registered from
        user code (no edits under src/repro/) runs end-to-end by name."""

        @register_selector("user-first-k")
        class UserFirstK:
            needs_predictions = False

            def select(self, bp, eta, ctx):
                return [
                    np.arange(min(eta, pop.size), dtype=np.intp)
                    for pop in bp.per_rule
                ]

        try:
            result = base_session(
                mixed_dataset, single_rule_frs, algorithm, selection="user-first-k"
            ).run()
            assert result.iterations > 0
            assert len(result.history) == result.iterations
        finally:
            SELECTORS.unregister("user-first-k")

    def test_unknown_strategy_suggests_registered(
        self, mixed_dataset, single_rule_frs, algorithm
    ):
        with pytest.raises(ValueError, match="did you mean 'random'"):
            base_session(
                mixed_dataset, single_rule_frs, algorithm, selection="randm"
            ).run()


class TestRerun:
    def test_session_rerun_is_deterministic(
        self, mixed_dataset, single_rule_frs, algorithm
    ):
        session = base_session(mixed_dataset, single_rule_frs, algorithm)
        a = session.run()
        b = session.run()
        assert [r.candidate_loss for r in a.history] == [
            r.candidate_loss for r in b.history
        ]
        assert a.n_added == b.n_added
