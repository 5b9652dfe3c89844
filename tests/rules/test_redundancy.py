"""Tests for rule redundancy reduction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_schema
from repro.rules import (
    FeedbackRule,
    FeedbackRuleSet,
    Predicate,
    clause,
    compact_rule_set,
    deduplicate_rules,
    remove_subsumed_rules,
    simplify_clause,
)


@pytest.fixture
def schema():
    return make_schema(numeric=["x"], categorical={"c": ("a", "b", "z")})


class TestSimplifyClause:
    def test_redundant_upper_bound_dropped(self, schema):
        c = clause(Predicate("x", "<", 5.0), Predicate("x", "<", 9.0))
        out = simplify_clause(c, schema)
        assert len(out) == 1
        assert out.predicates[0].value == 5.0

    def test_redundant_lower_bound_dropped(self, schema):
        c = clause(Predicate("x", ">", 3.0), Predicate("x", ">=", 1.0))
        out = simplify_clause(c, schema)
        assert len(out) == 1
        assert out.predicates[0].value == 3.0

    def test_eq_dominates_inequalities(self, schema):
        c = clause(Predicate("x", "==", 2.0), Predicate("x", "<", 5.0))
        out = simplify_clause(c, schema)
        assert [str(p) for p in out.predicates] == ["x = 2"]

    def test_strictness_kept(self, schema):
        # x < 5 implies x <= 5, so the weaker <= 5 goes.
        c = clause(Predicate("x", "<", 5.0), Predicate("x", "<=", 5.0))
        out = simplify_clause(c, schema)
        assert len(out) == 1
        assert out.predicates[0].operator == "<"

    def test_categorical_ne_implied_by_eq(self, schema):
        c = clause(Predicate("c", "==", "a"), Predicate("c", "!=", "b"))
        out = simplify_clause(c, schema)
        assert [str(p) for p in out.predicates] == ["c = 'a'"]

    def test_exhaustive_ne_implies_eq(self, schema):
        # != b and != z leaves only a; c == 'a' then implied? No: the EQ is
        # the informative one, NE pair stays informative... our rule: EQ is
        # implied when allowed == {value}.
        c = clause(
            Predicate("c", "!=", "b"),
            Predicate("c", "!=", "z"),
            Predicate("c", "==", "a"),
        )
        out = simplify_clause(c, schema)
        # Either the EQ alone or the NE pair alone is a valid minimal form;
        # coverage must be preserved regardless.
        assert len(out) < 3

    def test_duplicates_removed(self, schema):
        p = Predicate("x", "<", 5.0)
        out = simplify_clause(clause(p, p), schema)
        assert len(out) == 1

    def test_independent_attributes_untouched(self, schema):
        c = clause(Predicate("x", "<", 5.0), Predicate("c", "==", "a"))
        assert len(simplify_clause(c, schema)) == 2

    def test_coverage_preserved(self, schema, ):
        rng = np.random.default_rng(0)
        from repro.data import Table

        t = Table(
            schema,
            {"x": rng.uniform(0, 10, 300), "c": rng.integers(0, 3, 300)},
        )
        c = clause(
            Predicate("x", "<", 7.0),
            Predicate("x", "<=", 9.0),
            Predicate("c", "!=", "z"),
            Predicate("c", "==", "a"),
        )
        out = simplify_clause(c, schema)
        np.testing.assert_array_equal(c.mask(t), out.mask(t))


class TestDeduplicate:
    def _rule(self, v, target=1):
        return FeedbackRule.deterministic(clause(Predicate("x", "<", v)), target, 2)

    def test_exact_duplicates_dropped(self):
        frs = FeedbackRuleSet((self._rule(5.0), self._rule(5.0)))
        assert len(deduplicate_rules(frs)) == 1

    def test_same_clause_different_pi_kept(self):
        frs = FeedbackRuleSet((self._rule(5.0, 1), self._rule(5.0, 0)))
        assert len(deduplicate_rules(frs)) == 2

    def test_order_preserved(self):
        frs = FeedbackRuleSet((self._rule(5.0), self._rule(3.0), self._rule(5.0)))
        out = deduplicate_rules(frs)
        assert [r.clause.predicates[0].value for r in out] == [5.0, 3.0]


class TestSubsumption:
    def test_shadowed_rule_removed(self, schema, mixed_table=None):
        from repro.data import Table

        rng = np.random.default_rng(1)
        t = Table(schema, {"x": rng.uniform(0, 10, 200), "c": rng.integers(0, 3, 200)})
        broad = FeedbackRule.deterministic(clause(Predicate("x", "<", 8.0)), 1, 2)
        narrow = FeedbackRule.deterministic(clause(Predicate("x", "<", 4.0)), 1, 2)
        out = remove_subsumed_rules(FeedbackRuleSet((broad, narrow)), t)
        assert len(out) == 1
        assert out[0] is broad

    def test_conflicting_pi_not_removed(self, schema):
        from repro.data import Table

        rng = np.random.default_rng(1)
        t = Table(schema, {"x": rng.uniform(0, 10, 200), "c": rng.integers(0, 3, 200)})
        broad = FeedbackRule.deterministic(clause(Predicate("x", "<", 8.0)), 1, 2)
        narrow = FeedbackRule.deterministic(clause(Predicate("x", "<", 4.0)), 0, 2)
        out = remove_subsumed_rules(FeedbackRuleSet((broad, narrow)), t)
        assert len(out) == 2

    def test_disjoint_rules_kept(self, schema):
        from repro.data import Table

        rng = np.random.default_rng(1)
        t = Table(schema, {"x": rng.uniform(0, 10, 200), "c": rng.integers(0, 3, 200)})
        a = FeedbackRule.deterministic(clause(Predicate("x", "<", 3.0)), 1, 2)
        b = FeedbackRule.deterministic(clause(Predicate("x", ">", 7.0)), 1, 2)
        assert len(remove_subsumed_rules(FeedbackRuleSet((a, b)), t)) == 2


class TestCompact:
    def test_full_pass(self, schema):
        from repro.data import Table

        rng = np.random.default_rng(2)
        t = Table(schema, {"x": rng.uniform(0, 10, 200), "c": rng.integers(0, 3, 200)})
        messy = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(Predicate("x", "<", 8.0), Predicate("x", "<", 9.0)), 1, 2
                ),
                FeedbackRule.deterministic(clause(Predicate("x", "<", 8.0)), 1, 2),
                FeedbackRule.deterministic(clause(Predicate("x", "<", 2.0)), 1, 2),
            )
        )
        out = compact_rule_set(messy, schema, t)
        assert len(out) == 1
        assert str(out[0].clause) == "x < 8"


@settings(max_examples=40, deadline=None)
@given(
    v1=st.floats(min_value=0, max_value=10),
    v2=st.floats(min_value=0, max_value=10),
    op1=st.sampled_from(["<", "<=", ">", ">="]),
    op2=st.sampled_from(["<", "<=", ">", ">="]),
    seed=st.integers(min_value=0, max_value=10**5),
)
def test_simplify_preserves_coverage_property(v1, v2, op1, op2, seed):
    """Simplification never changes the covered set."""
    from repro.data import Table

    schema = make_schema(numeric=["x"])
    rng = np.random.default_rng(seed)
    t = Table(schema, {"x": rng.uniform(-1, 11, 100)})
    c = clause(Predicate("x", op1, v1), Predicate("x", op2, v2))
    out = simplify_clause(c, schema)
    np.testing.assert_array_equal(c.mask(t), out.mask(t))
