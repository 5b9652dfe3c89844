"""Feedback rule sets: coverage, conflict detection, and resolution.

Paper §3.1: two rules conflict when their coverages intersect and their label
distributions differ.  The FRS handed to FROTE must be conflict-free; this
module implements the paper's resolution options:

1. *Carve out the intersection*: ``s1 -> s1 AND NOT s2`` (via rule
   exceptions) and vice versa.
2. *Mixture rule for the intersection*: a new rule on ``s1 AND s2`` with a
   weighted mixture of the two distributions, excluded from both originals.

Overlapping rules that agree (same π) are left intact; per-instance rule
assignment resolves the overlap by first-match order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table
from repro.rules.clause import clauses_intersect
from repro.rules.rule import FeedbackRule


def _exception_blocks_intersection(a: FeedbackRule, b: FeedbackRule) -> bool:
    """True when an exception clause provably empties ``cov(a) ∩ cov(b)``.

    The intersection region satisfies every predicate of ``a.clause`` and
    ``b.clause``; if some exception's predicates are a (syntactic) subset of
    that combined set, every intersection point triggers the exception and
    the carved coverages cannot overlap.  This is exactly the certificate
    produced by carve-style conflict resolution (the exception *is* the
    other rule's clause).
    """
    combined = set(a.clause.predicates) | set(b.clause.predicates)
    for rule in (a, b):
        for exc in rule.exceptions:
            if set(exc.predicates) <= combined:
                return True
    return False


@dataclass(frozen=True)
class FeedbackRuleSet:
    """An ordered, immutable collection of feedback rules."""

    rules: tuple[FeedbackRule, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))
        if self.rules:
            n0 = self.rules[0].n_classes
            for r in self.rules[1:]:
                if r.n_classes != n0:
                    raise ValueError(
                        "all rules in a set must share the same number of classes"
                    )

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[FeedbackRule]:
        return iter(self.rules)

    def __getitem__(self, i: int) -> FeedbackRule:
        return self.rules[i]

    @property
    def n_classes(self) -> int:
        if not self.rules:
            raise ValueError("empty rule set has no class count")
        return self.rules[0].n_classes

    # ------------------------------------------------------------------ #
    def coverage_mask(self, table: Table) -> np.ndarray:
        """Union coverage ``cov(F, D)`` (paper Eq. 2).

        Like every whole-table pass here, sharded tables are walked in
        shard-aligned row blocks (one dense sub-table per block serves all
        rules) — bit-identical to the dense pass, O(block) transient heap.
        """
        spans = self._blocked_spans(table)
        if spans is not None:
            out = np.empty(table.n_rows, dtype=bool)
            for start, stop in spans:
                out[start:stop] = self.coverage_mask(table.row_slice(start, stop))
            return out
        out = np.zeros(table.n_rows, dtype=bool)
        for r in self.rules:
            out |= r.coverage_mask(table)
        return out

    def coverage_masks(self, table: Table) -> np.ndarray:
        """Stacked per-rule masks, shape ``(n_rules, n_rows)``."""
        if not self.rules:
            return np.zeros((0, table.n_rows), dtype=bool)
        spans = self._blocked_spans(table)
        if spans is not None:
            out = np.empty((len(self.rules), table.n_rows), dtype=bool)
            for start, stop in spans:
                out[:, start:stop] = self.coverage_masks(table.row_slice(start, stop))
            return out
        return np.stack([r.coverage_mask(table) for r in self.rules])

    def assign(self, table: Table) -> np.ndarray:
        """Per-row index of the first covering rule, or -1 if uncovered.

        After conflict resolution, overlapping rules share the same π, so
        first-match assignment does not change the objective.
        """
        spans = self._blocked_spans(table)
        if spans is not None:
            out = np.empty(table.n_rows, dtype=np.int64)
            for start, stop in spans:
                out[start:stop] = self.assign(table.row_slice(start, stop))
            return out
        out = np.full(table.n_rows, -1, dtype=np.int64)
        for i in range(len(self.rules) - 1, -1, -1):
            out[self.rules[i].coverage_mask(table)] = i
        return out

    @staticmethod
    def _blocked_spans(table: Table):
        """Shard-aligned spans for a sharded table, ``None`` for dense.

        Each yielded span also drops the spilled pages the *previous*
        block faulted in (``advise_cold``), so a sequential whole-table
        pass never accumulates the spilled set in the process RSS.
        """
        if getattr(table, "shard_rows", None) is None:
            return None
        from repro.data.shards import row_block_spans

        return row_block_spans(table, advise_cold=True)

    # ------------------------------------------------------------------ #
    def find_conflicts(
        self, schema: Schema, *, table: Table | None = None
    ) -> list[tuple[int, int]]:
        """Pairs of conflicting rule indices.

        Intersection is decided symbolically over the domain via
        :func:`~repro.rules.clause.clauses_intersect`, or empirically over
        ``table`` when one is given (a shared covered row is an intersection
        witness regardless of exceptions).
        """
        conflicts: list[tuple[int, int]] = []
        masks = self.coverage_masks(table) if table is not None else None
        for i in range(len(self.rules)):
            for j in range(i + 1, len(self.rules)):
                ri, rj = self.rules[i], self.rules[j]
                if not ri.conflicts_with(rj):
                    continue
                if masks is not None:
                    intersect = bool(np.any(masks[i] & masks[j]))
                else:
                    intersect = clauses_intersect(
                        ri.clause, rj.clause, schema
                    ) and not _exception_blocks_intersection(ri, rj)
                if intersect:
                    conflicts.append((i, j))
        return conflicts

    def is_conflict_free(self, schema: Schema, *, table: Table | None = None) -> bool:
        return not self.find_conflicts(schema, table=table)

    # ------------------------------------------------------------------ #
    def resolve_conflicts(
        self,
        schema: Schema,
        *,
        strategy: str = "carve",
        mixture_weight: float = 0.5,
    ) -> "FeedbackRuleSet":
        """Return a conflict-free rule set (paper's resolution options 1/2).

        ``strategy="carve"`` removes the intersection from both rules (the
        earlier rule keeps priority via the later rule's exception).
        ``strategy="mixture"`` additionally adds a new rule on the
        intersection with π = w·π1 + (1-w)·π2.
        """
        if strategy not in ("carve", "mixture"):
            raise ValueError(f"strategy must be 'carve' or 'mixture', got {strategy!r}")
        rules = list(self.rules)
        new_rules: list[FeedbackRule] = []
        for i in range(len(rules)):
            for j in range(i + 1, len(rules)):
                ri, rj = rules[i], rules[j]
                if not ri.conflicts_with(rj):
                    continue
                if not clauses_intersect(ri.clause, rj.clause, schema):
                    continue
                if strategy == "mixture":
                    pi_i = np.asarray(ri.pi)
                    pi_j = np.asarray(rj.pi)
                    mix = mixture_weight * pi_i + (1.0 - mixture_weight) * pi_j
                    new_rules.append(
                        FeedbackRule(
                            ri.clause.conjoin(rj.clause),
                            tuple(mix),
                            name=f"mix({ri.name or i},{rj.name or j})",
                        )
                    )
                rules[i] = rules[i].with_exception(rj.clause)
                rules[j] = rules[j].with_exception(ri.clause)
        return FeedbackRuleSet(tuple(rules + new_rules))


def draw_conflict_free(
    pool: Iterable[FeedbackRule],
    size: int,
    schema: Schema,
    rng: np.random.Generator,
    *,
    max_attempts: int = 500,
) -> FeedbackRuleSet | None:
    """Randomly draw ``size`` mutually conflict-free rules from ``pool``.

    Mirrors the paper's experimental protocol: rule sets are drawn from the
    perturbed-rule pool and redrawn until conflict-free; returns ``None``
    when no conflict-free set of the requested size is found (the paper
    reports this happening for |F| ∈ {15, 20} on some datasets).
    """
    pool = list(pool)
    if size > len(pool):
        return None
    for _ in range(max_attempts):
        idx = rng.choice(len(pool), size=size, replace=False)
        frs = FeedbackRuleSet(tuple(pool[i] for i in idx))
        if frs.is_conflict_free(schema):
            return frs
    # Greedy fallback: grow a compatible set from a random order.
    order = rng.permutation(len(pool))
    chosen: list[FeedbackRule] = []
    for i in order:
        cand = pool[i]
        trial = FeedbackRuleSet(tuple(chosen + [cand]))
        if trial.is_conflict_free(schema):
            chosen.append(cand)
            if len(chosen) == size:
                return FeedbackRuleSet(tuple(chosen))
    return None
