"""Tests for edit lineage and audit records."""

import json

import numpy as np
import pytest

import repro
from repro.core import (
    ORIGINAL,
    RELABELLED,
    SYNTHETIC,
    EditAudit,
    RowProvenance,
)
from repro.models import LogisticRegression, make_algorithm
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause


class TestRowProvenance:
    def test_for_input_all_original(self):
        p = RowProvenance.for_input(5)
        assert (p.kind == ORIGINAL).all()
        assert (p.rule_index == -1).all()
        assert p.n == 5

    def test_mark_relabelled(self):
        p = RowProvenance.for_input(5)
        p.mark_relabelled(np.array([1, 3]), np.array([0, 1]), np.array([1, 0]))
        assert p.kind[1] == RELABELLED and p.kind[3] == RELABELLED
        assert p.rule_index[3] == 1
        assert p.original_label[1] == 1
        assert p.kind[0] == ORIGINAL

    def test_extend_synthetic(self):
        p = RowProvenance.for_input(3)
        p2 = p.extend_synthetic([2, 1], iteration=4)
        assert p2.n == 6
        assert (p2.kind[3:] == SYNTHETIC).all()
        assert p2.rule_index[3:].tolist() == [0, 0, 1]
        assert (p2.iteration[3:] == 4).all()
        # Original object untouched.
        assert p.n == 3

    def test_drop_rows(self):
        p = RowProvenance.for_input(4)
        mask = np.array([False, True, False, True])
        p2 = p.drop_rows(mask)
        assert p2.n == 2

    def test_counts(self):
        p = RowProvenance.for_input(4)
        p.mark_relabelled(np.array([0]), np.array([0]), np.array([1]))
        p = p.extend_synthetic([3], iteration=0)
        assert p.counts() == {ORIGINAL: 3, RELABELLED: 1, SYNTHETIC: 3}

    def test_synthetic_by_rule(self):
        p = RowProvenance.for_input(2).extend_synthetic([2, 0, 5], iteration=0)
        assert p.synthetic_by_rule() == {0: 2, 2: 5}


class TestFroteProvenance:
    @pytest.fixture
    def run(self, mixed_dataset):
        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(
                        Predicate("age", "<", 35.0),
                        Predicate("income", ">", 120.0),
                    ),
                    0,
                    2,
                ),
            )
        )
        alg = make_algorithm(lambda: LogisticRegression())
        result = (
            repro.edit(mixed_dataset)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=6, q=0.5, eta=10, random_state=0)
            .run()
        )
        return frs, result, mixed_dataset

    def test_provenance_rows_match_dataset(self, run):
        _, result, _ = run
        assert result.provenance is not None
        assert result.provenance.n == result.dataset.n

    def test_synthetic_count_matches(self, run):
        _, result, _ = run
        counts = result.provenance.counts()
        assert counts[SYNTHETIC] == result.n_added

    def test_relabelled_count_matches(self, run):
        _, result, _ = run
        counts = result.provenance.counts()
        assert counts[RELABELLED] == result.n_relabelled

    def test_drop_strategy_provenance(self, mixed_dataset):
        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(Predicate("age", "<", 35.0)), 0, 2
                ),
            )
        )
        alg = make_algorithm(lambda: LogisticRegression())
        result = (
            repro.edit(mixed_dataset)
            .with_rules(frs)
            .with_algorithm(alg)
            .configure(tau=2, q=0.1, eta=5, mod_strategy="drop", random_state=0)
            .run()
        )
        assert result.provenance.n == result.dataset.n
        assert result.provenance.counts()[RELABELLED] == 0

    def test_audit_from_result(self, run):
        frs, result, _ = run
        audit = result.audit(frs, mod_strategy="relabel", operator="tester")
        assert audit.n_synthetic == result.n_added
        assert audit.metadata["operator"] == "tester"
        assert len(audit.rules) == 1


class TestEditAudit:
    def _audit(self):
        p = RowProvenance.for_input(4).extend_synthetic([2], iteration=0)
        return EditAudit(
            rules=["IF age < 30 THEN class=1"],
            mod_strategy="relabel",
            n_input=4,
            n_relabelled=1,
            n_dropped=0,
            n_synthetic=2,
            iterations=3,
            accepted_iterations=1,
            initial_loss=0.4,
            final_loss=0.2,
            provenance=p,
        )

    def test_to_dict_serializable(self):
        d = self._audit().to_dict()
        json.dumps(d)  # must not raise
        assert d["provenance_counts"][SYNTHETIC] == 2
        assert d["synthetic_by_rule"] == {"0": 2}

    def test_to_json_roundtrip(self):
        payload = json.loads(self._audit().to_json())
        assert payload["n_synthetic"] == 2
        assert payload["final_loss"] == 0.2

    def test_summary_readable(self):
        s = self._audit().summary()
        assert "FROTE edit audit" in s
        assert "relabelled:        1" in s
        assert "IF age < 30" in s
