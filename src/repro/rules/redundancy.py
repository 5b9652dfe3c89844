"""Rule and predicate redundancy reduction.

The paper cites Zhang & Deng (2015) on redundancy in rule-based knowledge
bases and favours small, intelligible rules (§3.1).  This module provides
the corresponding hygiene operations:

* :func:`simplify_clause` — drop predicates implied by the others
  (e.g. ``x < 5 AND x < 9`` -> ``x < 5``; ``c == 'a' AND c != 'b'`` ->
  ``c == 'a'``);
* :func:`remove_subsumed_rules` — drop rules whose coverage is contained in
  an earlier same-π rule's coverage (first-match semantics make them dead
  code);
* :func:`deduplicate_rules` — drop syntactically identical clauses.
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table
from repro.rules.clause import Clause
from repro.rules.predicate import EQ, GE, GT, LE, LT, NE, Predicate
from repro.rules.rule import FeedbackRule
from repro.rules.ruleset import FeedbackRuleSet


def _numeric_implied(p: Predicate, others: list[Predicate]) -> bool:
    """Whether numeric predicate ``p`` is implied by the other constraints."""
    v = float(p.value)
    for q in others:
        w = float(q.value)
        if p.operator in (LT, LE) and q.operator in (LT, LE):
            # q: x < w (or <=) implies p: x < v when w <= v (strictness aside).
            if w < v or (w == v and (q.operator == LT or p.operator == LE)):
                return True
        elif p.operator in (GT, GE) and q.operator in (GT, GE):
            if w > v or (w == v and (q.operator == GT or p.operator == GE)):
                return True
        elif q.operator == EQ:
            # x == w pins the value; p is implied if w satisfies it.
            if {
                LT: w < v,
                LE: w <= v,
                GT: w > v,
                GE: w >= v,
                EQ: w == v,
            }[p.operator]:
                return True
    return False


def _categorical_implied(
    p: Predicate, others: list[Predicate], categories: tuple[str, ...]
) -> bool:
    """Whether categorical predicate ``p`` is implied by the others."""
    allowed = set(categories)
    for q in others:
        if q.operator == EQ:
            allowed &= {str(q.value)}
        elif q.operator == NE:
            allowed -= {str(q.value)}
    if not allowed:
        return False  # unsatisfiable context; leave as-is
    if p.operator == EQ:
        return allowed == {str(p.value)}
    return str(p.value) not in allowed  # NE implied when value already excluded


def simplify_clause(c: Clause, schema: Schema) -> Clause:
    """Remove predicates implied by the remaining ones.

    Iterates to a fixed point; the result covers exactly the same region of
    the domain as the input (implied predicates are redundant by
    definition).
    """
    preds = list(dict.fromkeys(c.predicates))  # drop exact duplicates
    changed = True
    while changed:
        changed = False
        for p in list(preds):
            others = [q for q in preds if q is not p and q.attribute == p.attribute]
            if not others:
                continue
            spec = schema[p.attribute]
            for q in others:
                q.validate(spec)
            p.validate(spec)
            implied = (
                _numeric_implied(p, others)
                if spec.is_numeric
                else _categorical_implied(p, others, spec.categories)
            )
            if implied:
                preds.remove(p)
                changed = True
    return Clause(tuple(preds))


def simplify_rule(rule: FeedbackRule, schema: Schema) -> FeedbackRule:
    """Rule with a simplified clause (π and exceptions preserved)."""
    return rule.with_clause(simplify_clause(rule.clause, schema))


def deduplicate_rules(frs: FeedbackRuleSet) -> FeedbackRuleSet:
    """Drop rules with a clause (and π) identical to an earlier rule."""
    seen: set[tuple[str, tuple[float, ...]]] = set()
    kept: list[FeedbackRule] = []
    for r in frs:
        key = (str(r.clause), r.pi)
        if key in seen:
            continue
        seen.add(key)
        kept.append(r)
    return FeedbackRuleSet(tuple(kept))


def remove_subsumed_rules(
    frs: FeedbackRuleSet, table: Table
) -> FeedbackRuleSet:
    """Drop rules whose coverage (in ``table``) is contained in the union of
    earlier rules with the same π.

    Under first-match assignment such rules never fire on ``table``; pruning
    them keeps the rule set auditable (paper §3.1's preference for few
    rules).  Empirical containment is used — pass a representative table.
    """
    kept: list[FeedbackRule] = []
    kept_masks: list[np.ndarray] = []
    for r in frs:
        mask = r.coverage_mask(table)
        union_same_pi = np.zeros(table.n_rows, dtype=bool)
        for prev, prev_mask in zip(kept, kept_masks):
            if not prev.conflicts_with(r):
                union_same_pi |= prev_mask
        if mask.any() and np.all(union_same_pi[mask]):
            continue  # fully shadowed by earlier equivalent rules
        kept.append(r)
        kept_masks.append(mask)
    return FeedbackRuleSet(tuple(kept))


def compact_rule_set(
    frs: FeedbackRuleSet, schema: Schema, table: Table | None = None
) -> FeedbackRuleSet:
    """Full hygiene pass: simplify clauses, deduplicate, drop subsumed."""
    simplified = FeedbackRuleSet(
        tuple(simplify_rule(r, schema) for r in frs)
    )
    out = deduplicate_rules(simplified)
    if table is not None:
        out = remove_subsumed_rules(out, table)
    return out
