"""Input dataset modification strategies (paper §5.1, *Input dataset choices*).

Before augmentation, instances in ``cov(F, D)`` whose labels disagree with
their covering feedback rule may be:

* ``none``    — left untouched (the user cannot modify existing data);
* ``relabel`` — relabelled to agree with the covering rule (the paper's
  default for most experiments);
* ``drop``    — removed from the dataset.

For probabilistic rules, "agreement" means the label has non-zero
probability under π; relabelling samples from π.

Each strategy is a class registered in :data:`repro.engine.MODIFIERS`
implementing ``modify(dataset, frs, rng) -> ModificationResult``; user
strategies plug in via :func:`repro.engine.register_modifier` and are then
valid ``mod_strategy`` values in :class:`~repro.core.config.FroteConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.engine.registry import MODIFIERS, register_modifier
from repro.rules.ruleset import FeedbackRuleSet
from repro.utils.rng import RandomState, check_random_state


@dataclass(frozen=True)
class ModificationResult:
    """The modified dataset plus bookkeeping about what changed.

    ``touched_rows`` are indices *into the input dataset* of the rows that
    were relabelled or dropped; ``touched_rules`` gives the covering rule
    per touched row, and ``original_labels`` the pre-edit labels — the
    lineage information :mod:`repro.core.audit` records.
    """

    dataset: Dataset
    n_relabelled: int
    n_dropped: int
    touched_rows: np.ndarray = None  # type: ignore[assignment]
    touched_rules: np.ndarray = None  # type: ignore[assignment]
    original_labels: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        empty = np.empty(0, dtype=np.int64)
        if self.touched_rows is None:
            object.__setattr__(self, "touched_rows", empty)
        if self.touched_rules is None:
            object.__setattr__(self, "touched_rules", empty)
        if self.original_labels is None:
            object.__setattr__(self, "original_labels", empty)


def find_disagreements(
    dataset: Dataset, frs: FeedbackRuleSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows covered by the FRS whose label has zero probability under π.

    Returns ``(disagree_mask, touched_indices, assignment)`` where
    ``assignment`` maps every dataset row to its first covering rule
    (-1 when uncovered).
    """
    assign = frs.assign(dataset.X)
    disagree = np.zeros(dataset.n, dtype=bool)
    if len(frs) == 0:
        # Feedback-driven sessions may start with an empty rule set;
        # nothing is covered, so nothing can disagree.
        return disagree, np.flatnonzero(disagree), assign
    pi_matrix = np.stack([r.pi_array() for r in frs])
    covered = assign >= 0
    rows = np.flatnonzero(covered)
    disagree[rows] = pi_matrix[assign[rows], dataset.y[rows]] <= 0.0
    return disagree, np.flatnonzero(disagree), assign


@register_modifier("none")
class NoModification:
    """Leave the input dataset untouched."""

    def modify(
        self, dataset: Dataset, frs: FeedbackRuleSet, rng: np.random.Generator
    ) -> ModificationResult:
        return ModificationResult(dataset, 0, 0)


@register_modifier("drop")
class DropModification:
    """Remove rows whose labels disagree with their covering rule."""

    def modify(
        self, dataset: Dataset, frs: FeedbackRuleSet, rng: np.random.Generator
    ) -> ModificationResult:
        disagree, touched, assign = find_disagreements(dataset, frs)
        kept = dataset.loc_mask(~disagree)
        return ModificationResult(
            kept,
            0,
            int(disagree.sum()),
            touched_rows=touched,
            touched_rules=assign[touched],
            original_labels=dataset.y[touched].copy(),
        )


@register_modifier("relabel")
class RelabelModification:
    """Relabel disagreeing rows by sampling from the covering rule's π."""

    def modify(
        self, dataset: Dataset, frs: FeedbackRuleSet, rng: np.random.Generator
    ) -> ModificationResult:
        disagree, touched, assign = find_disagreements(dataset, frs)
        y_new = dataset.y.copy()
        for i in touched:
            rule = frs[int(assign[i])]
            y_new[i] = int(rule.sample_labels(1, rng)[0])
        return ModificationResult(
            dataset.with_labels(y_new),
            int(disagree.sum()),
            0,
            touched_rows=touched,
            touched_rules=assign[touched],
            original_labels=dataset.y[touched].copy(),
        )


def apply_modification(
    dataset: Dataset,
    frs: FeedbackRuleSet,
    strategy: str,
    *,
    random_state: RandomState = None,
) -> ModificationResult:
    """Apply a registered modification strategy by name."""
    MODIFIERS.validate(strategy)
    if len(frs) == 0:
        return ModificationResult(dataset, 0, 0)
    rng = check_random_state(random_state)
    return MODIFIERS.create(strategy).modify(dataset, frs, rng)
