"""Feedback-rule generation by perturbing learned rules (paper §5.1).

The paper simulates users whose feedback deviates from the model: rules
extracted from the model's explanation are perturbed with three operations —

1. reverse the operator of a randomly selected predicate;
2. replace the value of the selected predicate (categorical: another
   category; numeric: uniform within the attribute's observed range);
3. add a random condition taken from another rule —

and a perturbed rule is kept only if its coverage satisfies
``0.05 <= |cov(s, D)| / |D| < 0.25``.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.rules.clause import Clause, clause_satisfiable
from repro.rules.rule import FeedbackRule
from repro.utils.rng import RandomState, check_random_state

DEFAULT_COVERAGE_RANGE = (0.05, 0.25)


def _perturb_once(
    rule: FeedbackRule,
    dataset: Dataset,
    other_rules: list[FeedbackRule],
    rng: np.random.Generator,
) -> FeedbackRule | None:
    """Apply one randomly chosen perturbation; None if inapplicable."""
    preds = list(rule.clause.predicates)
    if not preds:
        return None
    op = int(rng.integers(0, 3))
    if op == 0:
        # 1. Reverse the operator of a random predicate.
        i = int(rng.integers(len(preds)))
        preds[i] = preds[i].reversed_operator()
    elif op == 1:
        # 2. Replace the value of a random predicate.
        i = int(rng.integers(len(preds)))
        p = preds[i]
        spec = dataset.X.schema[p.attribute]
        if spec.is_categorical:
            others = [c for c in spec.categories if c != p.value]
            if not others:
                return None
            preds[i] = p.with_value(str(rng.choice(others)))
        else:
            col = dataset.X.column(p.attribute)
            if col.size == 0:
                return None
            lo, hi = float(col.min()), float(col.max())
            preds[i] = p.with_value(float(rng.uniform(lo, hi)))
    else:
        # 3. Add a condition drawn from another rule.
        donor_preds = [
            p
            for r in other_rules
            if r is not rule
            for p in r.clause.predicates
            if p.attribute not in {q.attribute for q in preds}
        ]
        if not donor_preds:
            return None
        preds.append(donor_preds[int(rng.integers(len(donor_preds)))])
    new_clause = Clause(tuple(preds))
    if not clause_satisfiable(new_clause, dataset.X.schema):
        return None
    return rule.with_clause(new_clause)


def generate_feedback_pool(
    dataset: Dataset,
    base_rules: list[FeedbackRule],
    *,
    n_rules: int = 100,
    coverage_range: tuple[float, float] = DEFAULT_COVERAGE_RANGE,
    max_perturbations: int = 3,
    random_state: RandomState = None,
    max_attempts: int = 20000,
) -> list[FeedbackRule]:
    """Generate the pool of candidate feedback rules for experiments.

    Repeatedly perturbs random base rules (1 to ``max_perturbations``
    operations per candidate) and keeps candidates whose coverage fraction
    falls inside ``coverage_range``.  Duplicate clauses are rejected.

    Returns at most ``n_rules`` rules; fewer if ``max_attempts`` is
    exhausted (callers decide whether that is an error).
    """
    if not base_rules:
        raise ValueError("need at least one base rule to perturb")
    lo, hi = coverage_range
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"invalid coverage_range {coverage_range}")
    rng = check_random_state(random_state)
    n = dataset.n
    pool: list[FeedbackRule] = []
    seen: set[str] = {str(r.clause) for r in base_rules}
    attempts = 0
    while len(pool) < n_rules and attempts < max_attempts:
        attempts += 1
        rule = base_rules[int(rng.integers(len(base_rules)))]
        n_ops = int(rng.integers(1, max_perturbations + 1))
        cand: FeedbackRule | None = rule
        for _ in range(n_ops):
            cand = _perturb_once(cand, dataset, base_rules, rng)
            if cand is None:
                break
        if cand is None:
            continue
        key = str(cand.clause)
        if key in seen:
            continue
        cov = cand.coverage_count(dataset.X)
        if not (lo * n <= cov < hi * n):
            continue
        seen.add(key)
        pool.append(
            FeedbackRule(
                cand.clause,
                cand.pi,
                exceptions=cand.exceptions,
                name=f"fb#{len(pool)}",
            )
        )
    return pool
