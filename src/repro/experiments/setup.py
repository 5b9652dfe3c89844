"""Experiment scaffolding: rule pools, FRS draws, and tcf splits (paper §5.1).

The paper's protocol for every experiment:

1. train an initial model on the dataset, extract a rule-set explanation
   (BRCG; here the greedy substitute), and perturb it into a pool of up to
   100 feedback rules with coverage in [5%, 25%);
2. per run, draw a conflict-free FRS of the requested size from the pool;
3. split: outside-coverage 80/20 into train/test, coverage split by the
   training coverage fraction (tcf).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.split import CoverageSplit, coverage_aware_split
from repro.datasets import load_dataset
from repro.models import algorithm as model_algorithm
from repro.models.base import TrainingAlgorithm
from repro.rules.learning import GreedyRuleLearner, learn_model_explanation
from repro.rules.perturbation import generate_feedback_pool
from repro.rules.rule import FeedbackRule
from repro.rules.ruleset import FeedbackRuleSet, draw_conflict_free
from repro.utils.rng import RandomState, check_random_state


@dataclass(frozen=True)
class ExperimentContext:
    """Reusable per-(dataset, model) state shared across runs."""

    dataset_name: str
    model_name: str
    dataset: Dataset
    algorithm: TrainingAlgorithm
    rule_pool: tuple[FeedbackRule, ...]


def build_context(
    dataset_name: str,
    model_name: str,
    *,
    n: int | None = None,
    pool_size: int = 100,
    coverage_range: tuple[float, float] = (0.05, 0.25),
    random_state: RandomState = 42,
) -> ExperimentContext:
    """Load a dataset, train the initial model, and build the rule pool."""
    rng = check_random_state(random_state)
    dataset = load_dataset(dataset_name, n, random_state=rng.integers(2**31))
    algorithm = model_algorithm(model_name)
    model = algorithm(dataset)
    explanation = learn_model_explanation(
        dataset,
        model.predict(dataset.X),
        learner=GreedyRuleLearner(max_rules_per_class=6, max_conditions=3),
    )
    if not explanation:
        raise RuntimeError(
            f"rule learner extracted no rules for {dataset_name}/{model_name}"
        )
    pool = generate_feedback_pool(
        dataset,
        explanation,
        n_rules=pool_size,
        coverage_range=coverage_range,
        random_state=rng,
    )
    if len(pool) < 3:
        raise RuntimeError(
            f"feedback pool too small for {dataset_name}: {len(pool)} rules"
        )
    return ExperimentContext(dataset_name, model_name, dataset, algorithm, tuple(pool))


@dataclass(frozen=True)
class PreparedRun:
    """One run's FRS and split, ready for FROTE / baselines."""

    frs: FeedbackRuleSet
    split: CoverageSplit

    @property
    def train(self) -> Dataset:
        return self.split.train

    @property
    def test(self) -> Dataset:
        return self.split.test


def prepare_run(
    ctx: ExperimentContext,
    *,
    frs_size: int,
    tcf: float,
    rng: np.random.Generator,
    outside_test_fraction: float = 0.2,
) -> PreparedRun | None:
    """Draw a conflict-free FRS and build the tcf split for one run.

    Returns ``None`` when no conflict-free FRS of the requested size exists
    in the pool (reported by the paper for large |F| on some datasets).
    """
    frs = draw_conflict_free(
        list(ctx.rule_pool), frs_size, ctx.dataset.X.schema, rng
    )
    if frs is None:
        return None
    coverage = frs.coverage_mask(ctx.dataset.X)
    split = coverage_aware_split(
        ctx.dataset,
        coverage,
        tcf=tcf,
        outside_test_fraction=outside_test_fraction,
        random_state=rng,
    )
    return PreparedRun(frs=frs, split=split)


def probabilistic_variant(
    rule: FeedbackRule, p: float, class_marginal: np.ndarray
) -> FeedbackRule:
    """Probabilistic rule for the Table 6 experiment.

    With probability ``p`` the label equals the rule's class; the remaining
    mass follows the training class marginal restricted to the other
    classes (the paper's base-instance label approximation).
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    c = rule.target_class
    marginal = np.asarray(class_marginal, dtype=np.float64).copy()
    marginal[c] = 0.0
    total = marginal.sum()
    if total <= 0:
        others = np.ones_like(marginal)
        others[c] = 0.0
        marginal = others
        total = marginal.sum()
    pi = (1.0 - p) * marginal / total
    pi[c] += p
    return FeedbackRule(rule.clause, tuple(pi), exceptions=rule.exceptions,
                        name=f"{rule.name}@p={p:g}")
