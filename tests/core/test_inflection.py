"""Tests for the inflection-point analysis (paper §6)."""

import numpy as np

from repro.core import InflectionTrace, format_inflection, trace_inflection
from repro.data import train_test_split
from repro.models import LogisticRegression, make_algorithm
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause


class TestInflectionTrace:
    def _trace(self, j):
        n = len(j)
        return InflectionTrace(
            n_added=np.arange(n) * 10,
            mra=np.linspace(0.2, 0.9, n),
            f1_outside=np.linspace(0.9, 0.5, n),
            j_weighted=np.asarray(j, dtype=float),
        )

    def test_detects_first_decrease(self):
        t = self._trace([0.5, 0.6, 0.65, 0.6, 0.55])
        assert t.inflection_index == 3
        assert t.inflection_n_added == 30

    def test_monotone_has_no_inflection(self):
        t = self._trace([0.5, 0.6, 0.7])
        assert t.inflection_index is None
        assert t.inflection_n_added is None

    def test_format_marks_inflection(self):
        out = format_inflection(self._trace([0.5, 0.6, 0.55]))
        assert "<- inflection" in out

    def test_format_no_inflection_note(self):
        out = format_inflection(self._trace([0.5, 0.6]))
        assert "no inflection" in out


class TestTraceInflection:
    def test_sweep_runs_and_aligns(self, mixed_dataset):
        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(Predicate("age", "<", 35.0)), 0, 2
                ),
            )
        )
        train, test = train_test_split(mixed_dataset, random_state=0)
        alg = make_algorithm(lambda: LogisticRegression())
        trace = trace_inflection(
            train, test, alg, frs, eta=10, max_iterations=5, random_state=0
        )
        assert trace.n_added.size == trace.mra.size == trace.j_weighted.size
        assert trace.n_added[0] == 0
        # With accept_equal + mra_weight=1 the sweep keeps adding batches.
        assert trace.n_added.size >= 2

    def test_mra_chasing_raises_mra(self, mixed_dataset):
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
        train, test = train_test_split(mixed_dataset, random_state=1)
        alg = make_algorithm(lambda: LogisticRegression())
        trace = trace_inflection(
            train, test, alg, frs, eta=15, max_iterations=8, random_state=1
        )
        assert trace.mra[-1] >= trace.mra[0] - 0.05
