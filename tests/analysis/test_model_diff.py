"""Tests for the interpretable model comparison."""

import numpy as np
import pytest

import repro
from repro.analysis import diff_models, explain_changes, format_diff
from repro.models import LogisticRegression, make_algorithm
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause


class _FixedModel:
    """Stub model returning canned predictions."""

    def __init__(self, preds):
        self._preds = np.asarray(preds, dtype=np.int64)

    def predict(self, table):
        return self._preds[: table.n_rows].copy()


class TestDiffModels:
    def test_identical_models_no_changes(self, mixed_dataset):
        m = _FixedModel(np.zeros(mixed_dataset.n))
        diff = diff_models(m, m, mixed_dataset)
        assert diff.n_changed == 0
        assert diff.changed_fraction == 0.0

    def test_transitions_counted(self, mixed_dataset):
        a = _FixedModel(np.zeros(mixed_dataset.n))
        b_pred = np.zeros(mixed_dataset.n)
        b_pred[:10] = 1
        b = _FixedModel(b_pred)
        diff = diff_models(a, b, mixed_dataset)
        assert diff.n_changed == 10
        assert diff.transitions[0, 1] == 10
        assert diff.transitions[1, 0] == 0

    def test_rule_attribution(self, mixed_dataset):
        rule = FeedbackRule.deterministic(clause(Predicate("age", "<", 40.0)), 1, 2)
        frs = FeedbackRuleSet((rule,))
        cov = rule.coverage_mask(mixed_dataset.X)
        a = _FixedModel(np.zeros(mixed_dataset.n))
        b_pred = np.zeros(mixed_dataset.n)
        b_pred[cov] = 1  # the edit flips exactly the rule's region
        diff = diff_models(a, _FixedModel(b_pred), mixed_dataset, frs)
        covered, changed, agreeing = diff.rule_attribution[0]
        assert covered == int(cov.sum())
        assert changed == int(cov.sum())
        assert agreeing == int(cov.sum())
        assert diff.outside_changed == 0

    def test_collateral_changes_flagged(self, mixed_dataset):
        rule = FeedbackRule.deterministic(clause(Predicate("age", "<", 40.0)), 1, 2)
        frs = FeedbackRuleSet((rule,))
        a = _FixedModel(np.zeros(mixed_dataset.n))
        b_pred = np.ones(mixed_dataset.n)  # everything flipped
        diff = diff_models(a, _FixedModel(b_pred), mixed_dataset, frs)
        assert diff.outside_changed > 0

    def test_length_mismatch_raises(self, mixed_dataset):
        a = _FixedModel(np.zeros(3))
        with pytest.raises((ValueError, IndexError)):
            diff_models(a, a, mixed_dataset)


class TestExplainChanges:
    def test_recovers_changed_region(self, mixed_dataset):
        a = _FixedModel(np.zeros(mixed_dataset.n))
        b_pred = np.zeros(mixed_dataset.n)
        region = mixed_dataset.X.column("age") < 35.0
        b_pred[region] = 1
        diff = diff_models(a, _FixedModel(b_pred), mixed_dataset)
        rules = explain_changes(mixed_dataset, diff)
        assert rules
        # The learned description should be precise for the changed region.
        mask = rules[0].coverage_mask(mixed_dataset.X)
        precision = diff.changed_mask[mask].mean()
        assert precision > 0.8

    def test_no_changes_no_rules(self, mixed_dataset):
        a = _FixedModel(np.zeros(mixed_dataset.n))
        diff = diff_models(a, a, mixed_dataset)
        assert explain_changes(mixed_dataset, diff) == []


class TestFormatDiff:
    def test_report_contents(self, mixed_dataset):
        rule = FeedbackRule.deterministic(
            clause(Predicate("age", "<", 40.0)), 1, 2, name="policy"
        )
        frs = FeedbackRuleSet((rule,))
        a = _FixedModel(np.zeros(mixed_dataset.n))
        b_pred = np.zeros(mixed_dataset.n)
        b_pred[rule.coverage_mask(mixed_dataset.X)] = 1
        diff = diff_models(a, _FixedModel(b_pred), mixed_dataset, frs)
        rules = explain_changes(mixed_dataset, diff)
        out = format_diff(
            diff, mixed_dataset.label_names, frs=frs, change_rules=rules
        )
        assert "Model comparison" in out
        assert "deny -> approve" in out
        assert "policy" in out


class TestEndToEnd:
    def test_frote_edit_diff(self, mixed_dataset):
        """Diff the actual before/after models of a FROTE edit."""
        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(
                        Predicate("age", "<", 35.0),
                        Predicate("income", ">", 120.0),
                    ),
                    0,
                    2,
                    name="edit",
                ),
            )
        )
        alg = make_algorithm(lambda: LogisticRegression())
        before = alg(mixed_dataset)
        result = (
            repro.edit(mixed_dataset)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=8, q=0.5, eta=15, random_state=0)
            .run()
        )
        diff = diff_models(before, result.model, mixed_dataset, frs)
        covered, changed, agreeing = diff.rule_attribution[0]
        # The edit must have moved predictions inside the rule's region
        # toward the rule's class.
        assert agreeing > 0
        assert agreeing <= changed <= covered + diff.outside_changed + diff.n
