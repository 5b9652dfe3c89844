"""End-to-end integration tests: the full paper pipeline at small scale."""

import numpy as np
import pytest

import repro
from repro import FeedbackRuleSet, evaluate_model, parse_rule
from repro.data import coverage_aware_split
from repro.datasets import load_dataset
from repro.models import paper_algorithm
from repro.rules import draw_conflict_free, generate_feedback_pool, learn_model_explanation


@pytest.fixture(scope="module")
def car():
    return load_dataset("car", random_state=1)


@pytest.fixture(scope="module")
def car_pipeline(car):
    """Dataset -> model -> explanation -> feedback pool (shared)."""
    alg = paper_algorithm("LR")
    model = alg(car)
    expl = learn_model_explanation(car, model.predict(car.X))
    pool = generate_feedback_pool(car, expl, n_rules=30, random_state=2)
    return alg, pool


class TestFullPipeline:
    def test_frote_improves_test_j(self, car, car_pipeline):
        """The headline claim: FROTE raises test J̄ over the initial model."""
        alg, pool = car_pipeline
        rng = np.random.default_rng(42)
        frs = draw_conflict_free(pool, 3, car.X.schema, rng)
        assert frs is not None
        split = coverage_aware_split(
            car, frs.coverage_mask(car.X), tcf=0.1, random_state=42
        )
        initial = evaluate_model(alg(split.train), split.test, frs)
        result = (
            repro.edit(split.train)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=15, q=0.5, eta=20, random_state=42)
            .run()
        )
        final = evaluate_model(result.model, split.test, frs)
        assert final.j_weighted() > initial.j_weighted()
        assert final.mra > initial.mra

    def test_tcf_zero_new_rule_scenario(self, car, car_pipeline):
        """tcf = 0: rule has no training coverage; relaxation must kick in
        and FROTE must still raise MRA."""
        alg, pool = car_pipeline
        rng = np.random.default_rng(7)
        frs = draw_conflict_free(pool, 1, car.X.schema, rng)
        split = coverage_aware_split(
            car, frs.coverage_mask(car.X), tcf=0.0, random_state=7
        )
        assert frs.coverage_mask(split.train.X).sum() == 0
        initial = evaluate_model(alg(split.train), split.test, frs)
        result = (
            repro.edit(split.train)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=15, q=0.5, eta=20, mod_strategy="none", random_state=7)
            .run()
        )
        final = evaluate_model(result.model, split.test, frs)
        assert final.mra >= initial.mra

    def test_parse_rule_to_frote(self, car):
        """User-authored textual rule drives an edit end to end."""
        rule = parse_rule(
            "safety = 'low' AND buying = 'low' => acc",
            car.X.schema,
            car.label_names,
        )
        frs = FeedbackRuleSet((rule,))
        alg = paper_algorithm("LR")
        result = (
            repro.edit(car)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=8, q=0.3, eta=15, random_state=0)
            .run()
        )
        ev = evaluate_model(result.model, result.dataset, frs)
        assert ev.mra > 0.5

    def test_multiclass_gbdt_pipeline(self, car, car_pipeline):
        _, pool = car_pipeline
        alg = paper_algorithm("LGBM")
        rng = np.random.default_rng(3)
        frs = draw_conflict_free(pool, 2, car.X.schema, rng)
        split = coverage_aware_split(
            car, frs.coverage_mask(car.X), tcf=0.2, random_state=3
        )
        result = (
            repro.edit(split.train)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=6, q=0.5, eta=20, random_state=3)
            .run()
        )
        assert result.iterations <= 6
        assert evaluate_model(result.model, split.test, frs).j_weighted() > 0.0

    def test_mixed_type_dataset_pipeline(self):
        """Adult-like data exercises numeric + categorical generation."""
        ds = load_dataset("adult", n=600, random_state=0)
        alg = paper_algorithm("RF")
        model = alg(ds)
        expl = learn_model_explanation(ds, model.predict(ds.X))
        pool = generate_feedback_pool(ds, expl, n_rules=10, random_state=1)
        assert pool
        rng = np.random.default_rng(5)
        frs = draw_conflict_free(pool, 2, ds.X.schema, rng)
        assert frs is not None
        result = (
            repro.edit(ds)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=5, q=0.3, eta=25, random_state=5)
            .run()
        )
        if result.n_added:
            synth = result.dataset.X.take(np.arange(ds.n, result.dataset.n))
            covered = frs.coverage_mask(synth)
            assert covered.all()
