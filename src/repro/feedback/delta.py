"""Ruleset deltas: applying approved rules to a live edit state.

This extends the PR 4 ``DeltaJournal`` idiom from the dataset axis to the
FRS axis.  A rule whose symbolic coverage is disjoint (or provably
carved apart) from every conflicting existing rule is an **append**
delta: first-match assignment is append-stable (the new rule takes the
highest index, so it can only claim rows no rule covered — see
:meth:`repro.rules.ruleset.FeedbackRuleSet.assign`), existing rules keep
their rows and pools, and only the new rule's coverage, base population,
generator, and evaluation terms are fresh work.  A rule that conflicts
with an earlier rule's coverage is a **rebuild** delta: the intersection
is carved (or mixed) out of both sides, which changes existing rules'
coverage, so assignment, populations, and the evaluation are recomputed
from scratch.

Classification is symbolic (schema-only), so whether a rule appends or
rebuilds does not depend on *when* it arrives — the property the
streamed-vs-scheduled parity contract rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.feedback.sources import rule_from_jsonable, rule_to_jsonable
from repro.rules.clause import clauses_intersect
from repro.rules.rule import FeedbackRule
from repro.rules.ruleset import (
    FeedbackRuleSet,
    _exception_blocks_intersection,
)

#: Delta kinds.
APPEND = "append"
REBUILD = "rebuild"


@dataclass(frozen=True)
class RuleSetDelta:
    """One applied change to a run's feedback rule set.

    ``ruleset`` is the complete resulting rule set — deltas are
    self-contained so a journal replay can reconstruct the rule timeline
    without re-running aggregation.
    """

    kind: str
    iteration: int
    rules_added: tuple[FeedbackRule, ...]
    ruleset: FeedbackRuleSet
    n_rules_before: int
    provenance: str = ""


def delta_to_jsonable(delta: RuleSetDelta) -> dict[str, Any]:
    return {
        "kind": delta.kind,
        "iteration": int(delta.iteration),
        "n_rules_before": int(delta.n_rules_before),
        "provenance": delta.provenance,
        "rules_added": [rule_to_jsonable(r) for r in delta.rules_added],
        "ruleset": [rule_to_jsonable(r) for r in delta.ruleset],
    }


def delta_from_jsonable(data: dict[str, Any]) -> RuleSetDelta:
    return RuleSetDelta(
        kind=str(data["kind"]),
        iteration=int(data["iteration"]),
        rules_added=tuple(rule_from_jsonable(r) for r in data["rules_added"]),
        ruleset=FeedbackRuleSet(tuple(rule_from_jsonable(r) for r in data["ruleset"])),
        n_rules_before=int(data["n_rules_before"]),
        provenance=str(data.get("provenance", "")),
    )


def _conflicting_indices(frs: FeedbackRuleSet, rule: FeedbackRule, schema) -> list[int]:
    """Existing rules whose coverage provably intersects ``rule`` with a
    different label distribution (symbolic, exception-aware)."""
    out = []
    for i, existing in enumerate(frs):
        if not existing.conflicts_with(rule):
            continue
        if not clauses_intersect(existing.clause, rule.clause, schema):
            continue
        if _exception_blocks_intersection(existing, rule):
            continue
        out.append(i)
    return out


def classify_rule(frs: FeedbackRuleSet, rule: FeedbackRule, schema) -> str:
    """``"append"`` when the rule coexists with every existing rule,
    ``"rebuild"`` when it carves out earlier matches."""
    return REBUILD if _conflicting_indices(frs, rule, schema) else APPEND


def extend_ruleset(
    frs: FeedbackRuleSet,
    rule: FeedbackRule,
    schema,
    *,
    resolve: str = "carve",
    mixture_weight: float = 0.5,
) -> tuple[str, FeedbackRuleSet]:
    """Extend ``frs`` with ``rule``; returns ``(kind, resulting rule set)``.

    The rebuild path resolves only the *new* rule against its conflicts
    (mutual exception carve, optionally plus a mixture rule) rather than
    re-running :meth:`FeedbackRuleSet.resolve_conflicts` over the whole
    set — re-resolving an already-carved set would re-add duplicate
    exceptions because the pairwise pass does not consult the
    exception certificates it previously installed.
    """
    kind = classify_rule(frs, rule, schema)
    if kind == APPEND:
        return kind, FeedbackRuleSet(frs.rules + (rule,))
    if resolve not in ("carve", "mixture"):
        raise ValueError(f"resolve must be 'carve' or 'mixture', got {resolve!r}")
    rules = list(frs.rules)
    new = rule
    mixtures: list[FeedbackRule] = []
    for i in _conflicting_indices(frs, rule, schema):
        ri = rules[i]
        if resolve == "mixture":
            mix = mixture_weight * np.asarray(ri.pi) + (1.0 - mixture_weight) * np.asarray(
                rule.pi
            )
            mixtures.append(
                FeedbackRule(
                    ri.clause.conjoin(rule.clause),
                    tuple(mix),
                    name=f"mix({ri.name or i},{rule.name or len(rules)})",
                )
            )
        rules[i] = ri.with_exception(rule.clause)
        new = new.with_exception(ri.clause)
    return kind, FeedbackRuleSet(tuple(rules + [new] + mixtures))


def apply_rule(
    state,
    rule: FeedbackRule,
    *,
    resolve: str = "carve",
    mixture_weight: float = 0.5,
    provenance: str = "feedback",
) -> RuleSetDelta:
    """Apply one approved rule to a live :class:`EditState`.

    Installs the extended rule set, refreshes the evaluation and
    ``best_loss`` so subsequent acceptance decisions compare
    like-with-like under the new objective, logs the delta on
    ``state.ruleset_log``, and emits a ``"ruleset"`` progress event (the
    journal subscribes to it).  Append deltas cost O(new rule); rebuild
    deltas mark everything stale and recompute.
    """
    schema = state.active.X.schema
    old_frs = state.frs
    kind, new_frs = extend_ruleset(
        old_frs, rule, schema, resolve=resolve, mixture_weight=mixture_weight
    )
    if kind == APPEND:
        _apply_append(state, new_frs, rule)
    else:
        _apply_rebuild(state, new_frs)
    delta = RuleSetDelta(
        kind=kind,
        iteration=state.iteration,
        rules_added=(rule,),
        ruleset=new_frs,
        n_rules_before=len(old_frs),
        provenance=provenance,
    )
    state.ruleset_log.append(delta)
    state.emit("ruleset", ruleset=delta)
    return delta


def _apply_append(state, new_frs: FeedbackRuleSet, rule: FeedbackRule) -> None:
    """O(new rule) install: existing rules keep rows, pools, and terms."""
    from repro.core.objective import append_rule_evaluation

    # Evaluation and assignment under the *old* rule set (memoized — free
    # when nothing changed since the last boundary).
    base_eval = state.evaluate_active()
    y_pred = state.active_predictions()
    old_assign = state.active_assignment()

    # First-match append stability: the new rule has the highest index,
    # so it can only claim rows no existing rule covered.
    moved = (old_assign < 0) & rule.coverage_mask(state.active.X)
    m_new = len(new_frs) - 1
    new_assign = old_assign.copy()
    new_assign[moved] = m_new

    state.frs = new_frs
    state.assign_cache = (state.dataset_version, new_assign)
    evaluation = append_rule_evaluation(base_eval, y_pred, state.active, rule, moved)
    state.evaluation = evaluation
    state.evaluation_cache = (state.dataset_version, state.model, new_frs, evaluation)
    state.best_loss = state.loss_of(evaluation)

    if not state.population_stale and state.bp is not None:
        # Extend the per-rule working set by just the new rule, mirroring
        # what a full PreselectStage recompute would produce (per-rule
        # populations are independent).
        from repro.core.preselect import BasePopulation, preselect_base_population
        from repro.sampling.rule_generation import RuleConstrainedGenerator

        single = preselect_base_population(
            state.active, FeedbackRuleSet((rule,)), k=state.config.k
        )
        pop = replace(single.per_rule[0], rule_index=m_new)
        state.bp = BasePopulation(state.bp.per_rule + (pop,))
        state.generators = list(state.generators) + [
            RuleConstrainedGenerator(
                rule,
                state.active.X,
                k=state.config.k,
                distance_backend=getattr(state.config, "distance_backend", None),
                space=state.active_neighbor_space(),
            )
        ]
        state.pools = list(state.pools) + [
            state.active.X.take(pop.indices) if pop.size else None
        ]


def _apply_rebuild(state, new_frs: FeedbackRuleSet) -> None:
    """Carve-outs changed existing coverage: recompute from scratch."""
    state.frs = new_frs
    state.assign_cache = None
    state.evaluation_cache = None
    state.population_stale = True
    evaluation = state.evaluate_active()
    state.evaluation = evaluation
    state.best_loss = state.loss_of(evaluation)
