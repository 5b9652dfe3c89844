"""Delta-aware objective: the counts every :class:`Evaluation` carries.

:func:`append_rule_evaluation` derives the evaluation under an appended
rule in O(new rule) and matches a from-scratch pass *bitwise*; the
feedback layer relies on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import append_rule_evaluation, evaluate_predictions
from repro.metrics.classification import confusion_matrix, default_f1, f1_from_confusion
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause

from conftest import make_tiny_dataset

DATASET = make_tiny_dataset(n=200, seed=3)

RULE_A = FeedbackRule.deterministic(
    clause(Predicate("x1", "<", -0.5)), 1, 2, name="a"
)
RULE_B = FeedbackRule.deterministic(
    clause(Predicate("x1", ">", 0.8)), 0, 2, name="b"
)


def predictions(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, DATASET.n).astype(np.int64)


class TestAppendAxis:
    def test_append_matches_full_evaluation_bitwise(self):
        y_pred = predictions()
        base_frs = FeedbackRuleSet((RULE_A,))
        base = evaluate_predictions(y_pred, DATASET, base_frs)
        assigned = base_frs.assign(DATASET.X) >= 0
        moved = (~assigned) & RULE_B.coverage_mask(DATASET.X)

        derived = append_rule_evaluation(base, y_pred, DATASET, RULE_B, moved)
        full = evaluate_predictions(
            y_pred, DATASET, FeedbackRuleSet((RULE_A, RULE_B))
        )
        assert derived.mra == full.mra
        assert derived.f1_outside == full.f1_outside
        assert derived.n_covered == full.n_covered
        assert derived.n_outside == full.n_outside
        np.testing.assert_array_equal(derived.per_rule_mra, full.per_rule_mra)
        np.testing.assert_array_equal(derived.per_rule_count, full.per_rule_count)
        np.testing.assert_array_equal(
            derived.per_rule_agreement, full.per_rule_agreement
        )
        np.testing.assert_array_equal(
            derived.outside_confusion, full.outside_confusion
        )

    def test_append_with_empty_coverage(self):
        y_pred = predictions()
        base_frs = FeedbackRuleSet((RULE_A,))
        base = evaluate_predictions(y_pred, DATASET, base_frs)
        nowhere = FeedbackRule.deterministic(
            clause(Predicate("x1", ">", 99.0)), 0, 2, name="nowhere"
        )
        derived = append_rule_evaluation(
            base, y_pred, DATASET, nowhere, np.zeros(DATASET.n, dtype=bool)
        )
        assert derived.mra == base.mra
        assert derived.f1_outside == base.f1_outside
        assert np.isnan(derived.per_rule_mra[-1])
        assert derived.per_rule_count[-1] == 0


class TestConfusionF1:
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_f1_from_confusion_matches_default_f1(self, n_classes):
        rng = np.random.default_rng(9)
        y_true = rng.integers(0, n_classes, 300)
        y_pred = rng.integers(0, n_classes, 300)
        cm = confusion_matrix(y_true, y_pred, n_classes=n_classes)
        assert f1_from_confusion(cm) == default_f1(
            y_true, y_pred, n_classes=n_classes
        )

    def test_empty_partition_scores_one(self):
        assert f1_from_confusion(np.zeros((2, 2), dtype=np.int64)) == 1.0
