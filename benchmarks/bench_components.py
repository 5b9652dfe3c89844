"""Component micro-benchmarks: the substrates' steady-state throughput.

These use pytest-benchmark's normal repeated timing (unlike the
table/figure benches, which run once) and guard against performance
regressions in the hot paths: neighbour search, synthetic generation,
rule-coverage evaluation, and model training.
"""

import numpy as np
import pytest

from repro.core import evaluate_predictions
from repro.data import TabularEncoder
from repro.datasets import load_adult
from repro.models import (
    GradientBoostingClassifier,
    LogisticRegression,
    RandomForestClassifier,
)
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause
from repro.sampling import SMOTE, RuleConstrainedGenerator


@pytest.fixture(scope="module")
def adult():
    return load_adult(n=1500, random_state=0)


@pytest.fixture(scope="module")
def encoded(adult):
    return TabularEncoder().fit_transform(adult.X)


@pytest.fixture(scope="module")
def neighbor_space(adult):
    space = TableNeighborSpace().fit(adult.X)
    return space, space.encode(adult.X)


class TestNeighborThroughput:
    def test_brute_build(self, benchmark, neighbor_space):
        space, E = neighbor_space
        benchmark(lambda: BruteKNN(space.metric_).fit(E))

    def test_brute_query(self, benchmark, neighbor_space):
        space, E = neighbor_space
        knn = BruteKNN(space.metric_).fit(E)
        benchmark(lambda: knn.kneighbors(E[:100], 5, exclude_self=True))


class TestGenerationThroughput:
    def test_smote_generation(self, benchmark, adult):
        smote = SMOTE(k=5, random_state=0)
        out = benchmark(lambda: smote.generate(adult.X, 200))
        assert out.n_rows == 200

    def test_rule_constrained_generation(self, benchmark, adult):
        rule = FeedbackRule.deterministic(
            clause(
                Predicate("age", "<", 40.0),
                Predicate("hours-per-week", ">", 35.0),
            ),
            1,
            2,
        )
        gen = RuleConstrainedGenerator(rule, adult.X, k=5)
        pool = adult.X.loc_mask(rule.coverage_mask(adult.X))
        rng = np.random.default_rng(0)
        positions = np.arange(min(100, pool.n_rows))
        batch = benchmark(lambda: gen.generate(pool, positions, rng))
        assert rule.coverage_mask(batch.table).all()


class TestModelTraining:
    def test_logistic_fit(self, benchmark, encoded, adult):
        benchmark(lambda: LogisticRegression(max_iter=500).fit(encoded, adult.y))

    def test_forest_fit(self, benchmark, encoded, adult):
        benchmark(
            lambda: RandomForestClassifier(
                n_estimators=20, max_depth=3, random_state=0
            ).fit(encoded, adult.y)
        )

    def test_gbdt_fit(self, benchmark, encoded, adult):
        benchmark(
            lambda: GradientBoostingClassifier(n_estimators=20).fit(encoded, adult.y)
        )


class TestObjectiveEvaluation:
    def test_evaluate_predictions(self, benchmark, adult):
        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(Predicate("age", "<", 30.0)), 1, 2
                ),
                FeedbackRule.deterministic(
                    clause(Predicate("hours-per-week", ">", 50.0)), 0, 2
                ),
            )
        )
        pred = adult.y.copy()
        ev = benchmark(lambda: evaluate_predictions(pred, adult, frs))
        assert 0.0 <= ev.j_weighted() <= 1.0
