"""Ruleset deltas: classification, carve/mixture resolution, live apply."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.feedback import RuleSetDelta, apply_rule, classify_rule, extend_ruleset
from repro.feedback.delta import APPEND, REBUILD, delta_from_jsonable, delta_to_jsonable
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause

from conftest import make_tiny_dataset


def rule(pred, label, name):
    return FeedbackRule.deterministic(clause(pred), label, 2, name=name)


@pytest.fixture
def schema(mixed_schema):
    return mixed_schema


@pytest.fixture
def base_frs():
    return FeedbackRuleSet((rule(Predicate("age", "<", 30.0), 1, "young"),))


class TestClassify:
    def test_disjoint_rule_appends(self, base_frs, schema):
        new = rule(Predicate("age", ">", 60.0), 0, "old")
        assert classify_rule(base_frs, new, schema) == APPEND

    def test_same_label_overlap_appends(self, base_frs, schema):
        new = rule(Predicate("age", "<", 25.0), 1, "younger")
        assert classify_rule(base_frs, new, schema) == APPEND

    def test_conflicting_overlap_rebuilds(self, base_frs, schema):
        new = rule(Predicate("age", "<", 25.0), 0, "contrarian")
        assert classify_rule(base_frs, new, schema) == REBUILD

    def test_overlap_on_other_attribute_rebuilds(self, base_frs, schema):
        # Clauses over different attributes are jointly satisfiable, so a
        # conflicting label means the coverage provably overlaps.
        new = rule(Predicate("income", ">", 150.0), 0, "rich")
        assert classify_rule(base_frs, new, schema) == REBUILD

    def test_classification_ignores_arrival_time(self, base_frs, schema):
        """Symbolic classification: same verdict whatever the FRS history."""
        new = rule(Predicate("age", ">", 80.0), 0, "eldest")
        first = classify_rule(base_frs, new, schema)
        # Apply a compatible append first; the verdict must not change.
        _, grown = extend_ruleset(
            base_frs, rule(Predicate("age", ">", 70.0), 0, "senior"), schema
        )
        assert classify_rule(grown, new, schema) == first == APPEND


class TestExtend:
    def test_append_keeps_existing_rules_bitwise(self, base_frs, schema):
        new = rule(Predicate("age", ">", 60.0), 0, "old")
        kind, out = extend_ruleset(base_frs, new, schema)
        assert kind == APPEND
        assert out.rules[:-1] == base_frs.rules
        assert out.rules[-1] is new

    def test_carve_installs_mutual_exceptions(self, base_frs, schema):
        new = rule(Predicate("age", "<", 25.0), 0, "contrarian")
        kind, out = extend_ruleset(base_frs, new, schema, resolve="carve")
        assert kind == REBUILD
        assert len(out) == 2
        carved_old, carved_new = out.rules
        assert carved_old.exceptions and carved_new.exceptions
        # The carved pair no longer conflicts symbolically.
        assert classify_rule(FeedbackRuleSet((carved_old,)), carved_new, schema) == APPEND

    def test_mixture_adds_blended_rule(self, base_frs, schema):
        new = rule(Predicate("age", "<", 25.0), 0, "contrarian")
        kind, out = extend_ruleset(
            base_frs, new, schema, resolve="mixture", mixture_weight=0.5
        )
        assert kind == REBUILD
        assert len(out) == 3
        mix = out.rules[-1]
        np.testing.assert_allclose(np.asarray(mix.pi), [0.5, 0.5])

    def test_bad_resolve_errors(self, base_frs, schema):
        new = rule(Predicate("age", "<", 25.0), 0, "contrarian")
        with pytest.raises(ValueError, match="resolve"):
            extend_ruleset(base_frs, new, schema, resolve="nope")

    def test_recarve_is_stable(self, base_frs, schema):
        """Carving the same conflict twice must not stack exceptions."""
        new = rule(Predicate("age", "<", 25.0), 0, "contrarian")
        _, once = extend_ruleset(base_frs, new, schema)
        n_exceptions = sum(len(r.exceptions) for r in once)
        # Adding a further, non-conflicting rule re-runs classification
        # over the carved set and must leave the exceptions untouched.
        _, twice = extend_ruleset(
            once, rule(Predicate("age", ">", 90.0), 0, "other"), schema
        )
        assert sum(len(r.exceptions) for r in twice) == n_exceptions


class TestJsonRoundTrip:
    def test_delta_round_trip(self, base_frs, schema):
        new = rule(Predicate("age", "<", 25.0), 0, "contrarian")
        kind, out = extend_ruleset(base_frs, new, schema)
        delta = RuleSetDelta(
            kind=kind,
            iteration=3,
            rules_added=(new,),
            ruleset=out,
            n_rules_before=len(base_frs),
            provenance="test",
        )
        back = delta_from_jsonable(delta_to_jsonable(delta))
        assert back == delta


class TestApplyRule:
    def make_state(self, *, tau=3):
        dataset = make_tiny_dataset(n=120, seed=5)
        session = (
            repro.edit(dataset)
            .with_rules(FeedbackRule.deterministic(
                clause(Predicate("x1", "<", -0.5)), 1, 2, name="base"
            ))
            .with_algorithm("LR")
            .configure(tau=tau, q=0.5, eta=8, random_state=0, mod_strategy="none")
        )
        state = session.build_state()
        engine = session.build_engine()
        engine.initialize(state)
        return state

    def test_append_updates_evaluation_exactly(self):
        state = self.make_state()
        new = FeedbackRule.deterministic(
            clause(Predicate("x1", ">", 0.5)), 0, 2, name="appended"
        )
        delta = apply_rule(state, new)
        assert delta.kind == APPEND
        assert len(state.frs) == 2
        assert state.ruleset_log == [delta]
        # The O(new rule) evaluation equals a from-scratch one bitwise.
        from repro.core.objective import evaluate_predictions

        full = evaluate_predictions(
            state.active_predictions(), state.active, state.frs,
            assign=state.active_assignment(),
        )
        assert state.evaluation.mra == full.mra
        assert state.evaluation.f1_outside == full.f1_outside
        np.testing.assert_array_equal(
            state.evaluation.per_rule_mra, full.per_rule_mra
        )
        assert state.best_loss == state.loss_of(full)

    def test_append_extends_population_in_place(self):
        from repro.engine.stages import PreselectStage

        state = self.make_state()
        PreselectStage().run(state)  # build the per-rule working set
        assert not state.population_stale
        n_rules_before = len(state.bp.per_rule)
        new = FeedbackRule.deterministic(
            clause(Predicate("x1", ">", 0.5)), 0, 2, name="appended"
        )
        apply_rule(state, new)
        assert not state.population_stale
        assert len(state.bp.per_rule) == n_rules_before + 1
        assert len(state.generators) == len(state.pools) == n_rules_before + 1
        # The new rule's generator shares the version's neighbour space.
        assert state.generators[-1]._space is state.generators[0]._space

    def test_rebuild_marks_everything_stale(self):
        state = self.make_state()
        new = FeedbackRule.deterministic(
            clause(Predicate("x1", "<", -0.8)), 0, 2, name="contrarian"
        )
        delta = apply_rule(state, new)
        assert delta.kind == REBUILD
        assert state.population_stale
        assert state.best_loss == state.loss_of(state.evaluation)

    def test_emits_ruleset_event(self):
        state = self.make_state()
        seen = []
        state.listeners.append(
            lambda ev: seen.append(ev) if ev.kind == "ruleset" else None
        )
        delta = apply_rule(state, FeedbackRule.deterministic(
            clause(Predicate("x1", ">", 0.5)), 0, 2, name="appended"
        ))
        assert len(seen) == 1 and seen[0].ruleset is delta
