"""The FROTE objective (paper Eq. 3) and its empirical estimators.

The objective has two parts:

* **MRA** (model-rule agreement): over instances covered by the FRS, the
  expected agreement between the model's prediction and labels drawn from
  each covering rule's distribution π (0-1 loss → agreement probability);
* **outside-coverage performance**: F1 of the model against the original
  labels on instances outside ``cov(F)``.

Two weightings are used (paper §5.1 *Metrics*):

* in the FROTE loop, a fixed 0.5/0.5 weighting of MRA and F1
  (:meth:`Evaluation.j_equal`) because test coverage probabilities are
  unknown during augmentation;
* for reporting, rule terms weighted by empirical coverage probabilities
  (:meth:`Evaluation.j_weighted`).

Both are *complements* (``J̄ = 1 - J``): larger is better.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.engine.registry import register_objective
from repro.metrics.agreement import mra_probabilistic
from repro.metrics.classification import confusion_matrix, f1_from_confusion
from repro.rules.rule import FeedbackRule
from repro.rules.ruleset import FeedbackRuleSet


@dataclass(frozen=True)
class Evaluation:
    """Breakdown of one model evaluation against (dataset, FRS)."""

    per_rule_mra: np.ndarray  # agreement per rule (NaN when rule uncovered)
    per_rule_count: np.ndarray  # covered instances per rule (first-match)
    mra: float  # coverage-weighted mean agreement over covered instances
    f1_outside: float
    n_covered: int
    n_outside: int
    # The per-rule agreement *sums* and the outside-coverage confusion
    # counts, from which append_rule_evaluation extends an evaluation to
    # an appended rule without a full pass.
    per_rule_agreement: np.ndarray
    outside_confusion: np.ndarray

    @property
    def n_total(self) -> int:
        return self.n_covered + self.n_outside

    def j_equal(self, mra_weight: float = 0.5) -> float:
        """Fixed-weight objective complement used inside the FROTE loop."""
        return mra_weight * self.mra + (1.0 - mra_weight) * self.f1_outside

    def j_weighted(self) -> float:
        """Coverage-probability-weighted objective complement (reported J̄)."""
        if self.n_total == 0:
            return 0.0
        p_cov = self.n_covered / self.n_total
        return p_cov * self.mra + (1.0 - p_cov) * self.f1_outside

    def loss_equal(self, mra_weight: float = 0.5) -> float:
        """The in-loop loss ĵ = 1 - ĵ̄ that FROTE minimizes."""
        return 1.0 - self.j_equal(mra_weight)


@register_objective("equal")
def equal_weight_objective(evaluation: Evaluation, config) -> float:
    """The paper's in-loop loss ĵ: fixed MRA/F1 weighting (default 0.5)."""
    return evaluation.loss_equal(config.mra_weight)


@register_objective("weighted")
def coverage_weighted_objective(evaluation: Evaluation, config) -> float:
    """Loss under the coverage-probability weighting (reported J̄)."""
    return 1.0 - evaluation.j_weighted()


def evaluate_predictions(
    y_pred: np.ndarray,
    dataset: Dataset,
    frs: FeedbackRuleSet,
    *,
    assign: np.ndarray | None = None,
) -> Evaluation:
    """Evaluate pre-computed predictions against the FRS and the dataset.

    Covered instances are assigned to their first covering rule (rule sets
    are conflict-free, so overlaps agree on π); agreement for rule r is
    ``mean(π_r[pred])``.  Outside-coverage instances are scored with the
    paper's F1 convention (binary F1 for 2 classes, macro otherwise).

    ``assign`` may carry a precomputed ``frs.assign(dataset.X)`` result —
    the edit loop memoizes it per active dataset so rejected iterations
    skip the full rule-coverage pass.
    """
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_pred.shape[0] != dataset.n:
        raise ValueError("predictions length does not match dataset")
    m = len(frs)
    per_rule_mra = np.full(m, np.nan)
    per_rule_count = np.zeros(m, dtype=np.int64)
    per_rule_agreement = np.zeros(m, dtype=np.float64)
    if m == 0:
        # f1_from_confusion over the full confusion matrix is the same
        # arithmetic default_f1 runs internally; the counts let a later
        # append_rule_evaluation extend this evaluation.
        cm = confusion_matrix(dataset.y, y_pred, n_classes=dataset.n_classes)
        return Evaluation(
            per_rule_mra,
            per_rule_count,
            1.0,
            f1_from_confusion(cm),
            0,
            dataset.n,
            per_rule_agreement=per_rule_agreement,
            outside_confusion=cm,
        )

    if assign is None:
        assign = frs.assign(dataset.X)
    covered = assign >= 0
    n_covered = int(covered.sum())
    weighted_sum = 0.0
    for r, rule in enumerate(frs):
        rows = assign == r
        cnt = int(rows.sum())
        per_rule_count[r] = cnt
        if cnt == 0:
            continue
        pi = rule.pi_array()
        rows_pred = y_pred[rows]
        agreement = mra_probabilistic(rows_pred, pi)
        per_rule_mra[r] = agreement
        per_rule_agreement[r] = float(np.sum(pi[rows_pred]))
        weighted_sum += agreement * cnt
    mra = weighted_sum / n_covered if n_covered else 1.0
    outside = ~covered
    cm = confusion_matrix(
        dataset.y[outside], y_pred[outside], n_classes=dataset.n_classes
    )
    return Evaluation(
        per_rule_mra=per_rule_mra,
        per_rule_count=per_rule_count,
        mra=mra,
        f1_outside=f1_from_confusion(cm),
        n_covered=n_covered,
        n_outside=int(outside.sum()),
        per_rule_agreement=per_rule_agreement,
        outside_confusion=cm,
    )


def evaluate_model(
    model,
    dataset: Dataset,
    frs: FeedbackRuleSet,
    *,
    assign: np.ndarray | None = None,
) -> Evaluation:
    """Predict with ``model`` on ``dataset`` and evaluate (one prediction pass).

    ``assign`` optionally reuses a memoized ``frs.assign(dataset.X)``.
    """
    return evaluate_predictions(model.predict(dataset.X), dataset, frs, assign=assign)


def append_rule_evaluation(
    base: Evaluation,
    y_pred: np.ndarray,
    dataset: Dataset,
    rule: FeedbackRule,
    moved_mask: np.ndarray,
) -> Evaluation:
    """Evaluation under ``frs + (rule,)`` derived from the one under ``frs``.

    ``moved_mask`` flags the rows the appended rule claims — previously
    outside coverage (first-match assignment is append-stable, so those
    are the *only* rows that change hands).  O(new rule's coverage), and
    bitwise-equal to a full :func:`evaluate_predictions` pass under the
    extended rule set: every existing rule keeps exactly its rows, so the
    stored per-rule means are reused verbatim; the coverage-weighted MRA
    fold is re-accumulated in the same left-to-right order over the same
    floats; and the outside F1 comes from the confusion counts minus the
    moved rows' counts (integer-exact).
    """
    y_pred = np.asarray(y_pred, dtype=np.int64)
    moved = np.asarray(moved_mask, dtype=bool)
    cnt = int(moved.sum())
    m = base.per_rule_mra.shape[0]
    per_rule_mra = np.append(base.per_rule_mra, np.nan)
    per_rule_count = np.append(base.per_rule_count, np.int64(cnt))
    per_rule_agreement = np.append(base.per_rule_agreement, 0.0)
    if cnt:
        pi = rule.pi_array()
        moved_pred = y_pred[moved]
        per_rule_mra[m] = mra_probabilistic(moved_pred, pi)
        per_rule_agreement[m] = float(np.sum(pi[moved_pred]))
    moved_cm = confusion_matrix(
        dataset.y[moved], y_pred[moved], n_classes=dataset.n_classes
    )
    n_covered = base.n_covered + cnt
    weighted_sum = 0.0
    for r in range(m + 1):
        if per_rule_count[r] == 0:
            continue
        weighted_sum += per_rule_mra[r] * int(per_rule_count[r])
    mra = float(weighted_sum / n_covered) if n_covered else 1.0
    outside_cm = base.outside_confusion - moved_cm
    return Evaluation(
        per_rule_mra=per_rule_mra,
        per_rule_count=per_rule_count,
        mra=mra,
        f1_outside=f1_from_confusion(outside_cm),
        n_covered=n_covered,
        n_outside=base.n_outside - cnt,
        per_rule_agreement=per_rule_agreement,
        outside_confusion=outside_cm,
    )
