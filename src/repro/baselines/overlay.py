"""Overlay (Daly et al., 2021) — the post-processing baseline of Table 2.

Overlay never retrains the model.  It holds a *Full Knowledge Rule Set*
(FKRS): a rule-set description of the model (here learned with the
BRCG-substitute :class:`~repro.rules.learning.GreedyRuleLearner`) with the
user's feedback rules substituted in at highest priority.  Two modes, per
the FROTE paper's description:

* **Hard constraints** — the feedback is authoritative: any instance
  matched by an FKRS rule receives that rule's class (feedback rules
  checked first); unmatched instances fall through to the model.  High MRA
  inside coverage, but the imperfect rule surrogate degrades
  outside-coverage F1 — the failure mode Tables 2/7/8 show.
* **Soft constraints** — the feedback transforms the *input*: an instance
  matched by a feedback rule targeting class ``c`` is mapped into the
  model's own region for ``c`` (the attributes of a model rule predicting
  ``c`` are set to satisfying values) and the model's prediction on the
  transformed instance is returned.  The model stays in charge, so the
  method degrades when the feedback is far from the model's boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.data.table import Table
from repro.models.base import TableModel
from repro.rules.learning import GreedyRuleLearner
from repro.rules.predicate import EQ, NE, Predicate
from repro.rules.rule import FeedbackRule
from repro.rules.ruleset import FeedbackRuleSet
from repro.sampling.rule_generation import window_from_conditions

SOFT, HARD = "soft", "hard"


def _satisfying_value(
    preds: tuple[Predicate, ...],
    spec,
    attr_range: tuple[float, float],
    current: float | int,
) -> float | int:
    """A raw column value satisfying all predicates on one attribute."""
    if spec.is_numeric:
        window = window_from_conditions(preds)
        if window.eq is not None:
            return float(window.eq)
        if window.contains(float(current)):
            return float(current)
        lo = window.lo if np.isfinite(window.lo) else attr_range[0]
        hi = window.hi if np.isfinite(window.hi) else attr_range[1]
        if lo > hi:  # window outside observed range; trust the window
            lo, hi = min(window.lo, window.hi), max(window.lo, window.hi)
        mid = (lo + hi) / 2.0
        if not window.contains(mid):
            # Degenerate window: nudge off the strict boundary.
            mid = np.nextafter(lo, np.inf) if window.lo_strict else lo
        return float(mid)
    allowed = set(range(len(spec.categories)))
    for p in preds:
        code = spec.categories.index(str(p.value))
        if p.operator == EQ:
            allowed &= {code}
        elif p.operator == NE:
            allowed -= {code}
    if int(current) in allowed:
        return int(current)
    if not allowed:
        return int(current)
    return int(sorted(allowed)[0])


class Overlay:
    """Post-processing layer combining a frozen model with feedback rules.

    Parameters
    ----------
    model:
        The trained model being patched (never retrained).
    feedback:
        The user's feedback rules (FROTE's FRS, Overlay's modified FKRS
        entries).
    reference:
        Training table: provides the model-explanation rules and attribute
        ranges for soft-constraint transformations.
    mode:
        ``"soft"`` or ``"hard"``.
    learner:
        Rule learner used to describe the model (defaults to the
        BRCG-substitute with its default settings).
    """

    def __init__(
        self,
        model: TableModel,
        feedback: FeedbackRuleSet,
        reference: Table,
        *,
        mode: str = SOFT,
        learner: GreedyRuleLearner | None = None,
    ) -> None:
        if mode not in (SOFT, HARD):
            raise ValueError(f"mode must be 'soft' or 'hard', got {mode!r}")
        self.model = model
        self.feedback = feedback
        self.mode = mode
        n_classes = model.n_classes_
        if n_classes is None:
            raise ValueError("model must be fitted")
        self.n_classes = n_classes
        learner = learner or GreedyRuleLearner()
        self.model_rules: list[FeedbackRule] = learner.learn(
            reference, model.predict(reference), n_classes
        )
        self._ranges: dict[str, tuple[float, float]] = {}
        for name in reference.schema.numeric_names:
            col = reference.column(name)
            self._ranges[name] = (
                (float(col.min()), float(col.max())) if col.size else (0.0, 1.0)
            )

    # ------------------------------------------------------------------ #
    def predict(self, table: Table) -> np.ndarray:
        if self.mode == HARD:
            return self._predict_hard(table)
        return self._predict_soft(table)

    def _predict_hard(self, table: Table) -> np.ndarray:
        out = self.model.predict(table)
        # Model-explanation rules fire first (lowest priority)...
        for rule in reversed(self.model_rules):
            out[rule.coverage_mask(table)] = rule.target_class
        # ...then feedback rules override (highest priority).
        for rule in reversed(self.feedback.rules):
            out[rule.coverage_mask(table)] = rule.target_class
        return out

    def _predict_soft(self, table: Table) -> np.ndarray:
        out = self.model.predict(table)
        assign = self.feedback.assign(table)
        covered = np.flatnonzero(assign >= 0)
        if covered.size == 0:
            return out
        transformed = self._transform(table, assign)
        out[covered] = self.model.predict(transformed.take(covered))
        return out

    def _transform(self, table: Table, assign: np.ndarray) -> Table:
        """Map feedback-covered rows toward the model's region for the
        feedback class.

        Faithful to Daly et al.'s transformation semantics: only attributes
        the feedback rule itself constrains are rewritten (the
        transformation maps between the feedback rule's conditions and the
        original rule's conditions on those attributes).  When the feedback
        deviates structurally from the model's rules — conditions on
        attributes the model's region does not share — the transformed
        instance may land outside that region and Soft constraints
        underperform, the limitation the FROTE paper highlights.
        """
        columns = {name: table.column(name).copy() for name in table.schema.names}
        by_class: dict[int, FeedbackRule] = {}
        for r in self.model_rules:
            by_class.setdefault(r.target_class, r)
        for i in np.flatnonzero(assign >= 0):
            fb_rule = self.feedback[int(assign[i])]
            target = fb_rule.target_class
            model_rule = self._closest_model_rule(fb_rule, by_class.get(target))
            if model_rule is None:
                continue  # model has no region for this class; model decides
            shared = set(model_rule.clause.attributes) & set(fb_rule.clause.attributes)
            for attr in shared:
                spec = table.schema[attr]
                preds = model_rule.clause.predicates_on(attr)
                columns[attr][i] = _satisfying_value(
                    preds, spec, self._ranges.get(attr, (0.0, 1.0)), columns[attr][i]
                )
        return Table(table.schema, columns, copy=False)

    def _closest_model_rule(
        self, fb_rule: FeedbackRule, default: FeedbackRule | None
    ) -> FeedbackRule | None:
        """Model rule for the feedback class sharing the most attributes."""
        target = fb_rule.target_class
        fb_attrs = set(fb_rule.clause.attributes)
        best, best_shared = default, -1
        for r in self.model_rules:
            if r.target_class != target:
                continue
            shared = len(fb_attrs & set(r.clause.attributes))
            if shared > best_shared:
                best, best_shared = r, shared
        return best
