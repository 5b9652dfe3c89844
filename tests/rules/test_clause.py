"""Tests for Clause conjunction semantics and symbolic satisfiability."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rules import Clause, Predicate, clause, clause_satisfiable, clauses_intersect


class TestMask:
    def test_empty_clause_covers_all(self, mixed_table):
        assert clause().mask(mixed_table).all()

    def test_conjunction_is_and(self, mixed_table):
        p1 = Predicate("age", "<", 50.0)
        p2 = Predicate("marital", "==", "single")
        c = clause(p1, p2)
        np.testing.assert_array_equal(
            c.mask(mixed_table), p1.mask(mixed_table) & p2.mask(mixed_table)
        )

    def test_covers_row_agrees_with_mask(self, mixed_table):
        c = clause(
            Predicate("age", ">", 30.0),
            Predicate("color", "!=", "red"),
        )
        mask = c.mask(mixed_table)
        for i in range(0, mixed_table.n_rows, 13):
            assert c.covers_row(mixed_table, i) == mask[i]


class TestStructure:
    def test_attributes_deduplicated(self):
        c = clause(
            Predicate("a", ">", 1.0),
            Predicate("b", "<", 2.0),
            Predicate("a", "<", 5.0),
        )
        assert c.attributes == ("a", "b")

    def test_conjoin(self):
        c1 = clause(Predicate("a", ">", 1.0))
        c2 = clause(Predicate("b", "<", 2.0))
        assert len(c1.conjoin(c2)) == 2

    def test_without(self):
        p = Predicate("a", ">", 1.0)
        c = clause(p, Predicate("b", "<", 2.0))
        assert len(c.without(p)) == 1
        assert "a" not in c.without(p).attributes

    def test_predicates_on(self):
        c = clause(Predicate("a", ">", 1.0), Predicate("a", "<", 5.0))
        assert len(c.predicates_on("a")) == 2
        assert c.predicates_on("zzz") == ()

    def test_str_empty(self):
        assert str(clause()) == "TRUE"

    def test_str_joins_with_and(self):
        c = clause(Predicate("a", ">", 1.0), Predicate("b", "<", 2.0))
        assert " AND " in str(c)

    def test_list_coerced_to_tuple(self):
        c = Clause([Predicate("a", ">", 1.0)])
        assert isinstance(c.predicates, tuple)


class TestSatisfiability:
    def _schema(self):
        from repro.data import make_schema

        return make_schema(
            numeric=["x"], categorical={"c": ("a", "b", "z")}
        )

    def test_empty_clause_satisfiable(self):
        assert clause_satisfiable(clause(), self._schema())

    def test_open_interval_satisfiable(self):
        c = clause(Predicate("x", ">", 1.0), Predicate("x", "<", 2.0))
        assert clause_satisfiable(c, self._schema())

    def test_contradictory_interval(self):
        c = clause(Predicate("x", ">", 2.0), Predicate("x", "<", 1.0))
        assert not clause_satisfiable(c, self._schema())

    def test_touching_bounds_closed(self):
        c = clause(Predicate("x", ">=", 1.0), Predicate("x", "<=", 1.0))
        assert clause_satisfiable(c, self._schema())

    def test_touching_bounds_strict(self):
        c = clause(Predicate("x", ">", 1.0), Predicate("x", "<=", 1.0))
        assert not clause_satisfiable(c, self._schema())

    def test_eq_inside_interval(self):
        c = clause(Predicate("x", "==", 1.5), Predicate("x", ">", 1.0))
        assert clause_satisfiable(c, self._schema())

    def test_eq_outside_interval(self):
        c = clause(Predicate("x", "==", 0.5), Predicate("x", ">", 1.0))
        assert not clause_satisfiable(c, self._schema())

    def test_two_different_eqs(self):
        c = clause(Predicate("x", "==", 1.0), Predicate("x", "==", 2.0))
        assert not clause_satisfiable(c, self._schema())

    def test_categorical_contradiction(self):
        c = clause(Predicate("c", "==", "a"), Predicate("c", "==", "b"))
        assert not clause_satisfiable(c, self._schema())

    def test_categorical_eq_and_ne_same_value(self):
        c = clause(Predicate("c", "==", "a"), Predicate("c", "!=", "a"))
        assert not clause_satisfiable(c, self._schema())

    def test_all_categories_excluded(self):
        c = clause(
            Predicate("c", "!=", "a"),
            Predicate("c", "!=", "b"),
            Predicate("c", "!=", "z"),
        )
        assert not clause_satisfiable(c, self._schema())

    def test_clauses_intersect(self):
        s = self._schema()
        a = clause(Predicate("x", ">", 0.0))
        b = clause(Predicate("x", "<", 1.0))
        assert clauses_intersect(a, b, s)

    def test_clauses_disjoint(self):
        s = self._schema()
        a = clause(Predicate("x", ">", 1.0))
        b = clause(Predicate("x", "<", 0.0))
        assert not clauses_intersect(a, b, s)


@settings(max_examples=50, deadline=None)
@given(
    lo=st.floats(min_value=-10, max_value=10),
    hi=st.floats(min_value=-10, max_value=10),
    strict_lo=st.booleans(),
    strict_hi=st.booleans(),
)
def test_interval_satisfiability_property(lo, hi, strict_lo, strict_hi):
    """Symbolic interval feasibility matches the mathematical definition."""
    from repro.data import make_schema

    schema = make_schema(numeric=["x"])
    c = clause(
        Predicate("x", ">" if strict_lo else ">=", lo),
        Predicate("x", "<" if strict_hi else "<=", hi),
    )
    if lo < hi:
        expected = True
    elif lo == hi:
        expected = not (strict_lo or strict_hi)
    else:
        expected = False
    assert clause_satisfiable(c, schema) == expected


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_satisfiable_whenever_dataset_witness_exists(seed):
    """If some row satisfies a clause, the symbolic check must agree."""
    import numpy as np

    from repro.data import Table, make_schema

    schema = make_schema(numeric=["x"], categorical={"c": ("a", "b")})
    rng = np.random.default_rng(seed)
    t = Table(schema, {"x": rng.uniform(0, 1, 50), "c": rng.integers(0, 2, 50)})
    thr = float(rng.uniform(0, 1))
    c = clause(
        Predicate("x", rng.choice(["<", ">"]), thr),
        Predicate("c", "==", str(rng.choice(["a", "b"]))),
    )
    if c.mask(t).any():
        assert clause_satisfiable(c, schema)
