"""Integer-programming base-instance selection (paper Eq. 5).

Maximize the total weight of selected base instances subject to per-rule
bounds::

    max_z  sum_i w_i z_i
    s.t.   k + 1  <=  sum_i a_ji z_i  <=  eta / m     for each rule j
           z in {0, 1}^p

``a_ji = 1`` iff instance ``i`` lies in rule ``j``'s base population.  The
paper notes that the LP relaxation is usually integral; we solve the
relaxation with :func:`scipy.optimize.linprog` and repair any fractional
solution greedily (round by fractional value × weight, then fix per-rule
bound violations).  A pure greedy fallback handles LP failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


@dataclass(frozen=True)
class SelectionProblem:
    """One instance-selection problem over the BP union.

    Attributes
    ----------
    weights:
        Value of each candidate instance (length ``p``).
    membership:
        Boolean matrix ``(m, p)``: rule j × candidate i.
    lower, upper:
        Per-rule selection bounds (lower clamped to pool sizes by
        :func:`build_selection_problem`).
    """

    weights: np.ndarray
    membership: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @property
    def n_candidates(self) -> int:
        return int(self.weights.size)

    @property
    def n_rules(self) -> int:
        return int(self.membership.shape[0])


def build_selection_problem(
    weights: np.ndarray,
    rule_pools: list[np.ndarray],
    *,
    k: int,
    eta: int,
) -> tuple[SelectionProblem, np.ndarray]:
    """Assemble Eq. 5 from per-rule pools of dataset indices.

    Returns the problem plus the array of candidate dataset indices
    (the union ``P``); the problem's columns are positions in that array.
    Bounds are clamped so the problem is always feasible: lower is
    ``min(k + 1, pool size)``, upper is ``max(lower, eta / m)``.
    """
    union = np.unique(np.concatenate([p for p in rule_pools])) if rule_pools else np.empty(0, dtype=np.intp)
    pos = {int(v): i for i, v in enumerate(union)}
    m = len(rule_pools)
    membership = np.zeros((m, union.size), dtype=bool)
    for j, pool in enumerate(rule_pools):
        for v in pool:
            membership[j, pos[int(v)]] = True
    per_rule_cap = max(1, eta // max(m, 1))
    lower = np.minimum(k + 1, membership.sum(axis=1))
    upper = np.maximum(lower, per_rule_cap)
    w = np.asarray(weights, dtype=np.float64)
    if w.size != union.size:
        raise ValueError(
            f"weights length {w.size} does not match union size {union.size}"
        )
    return SelectionProblem(w, membership, lower, upper), union


def solve_lp_relaxation(problem: SelectionProblem) -> np.ndarray | None:
    """Solve the LP relaxation of Eq. 5; None if the solver fails."""
    p = problem.n_candidates
    if p == 0:
        return np.empty(0)
    A = problem.membership.astype(np.float64)
    # linprog minimizes: use -w; constraints A z <= upper and -A z <= -lower.
    A_ub = np.vstack([A, -A])
    b_ub = np.concatenate([problem.upper, -problem.lower]).astype(np.float64)
    res = linprog(
        -problem.weights,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        return None
    return np.clip(res.x, 0.0, 1.0)


def _repair(problem: SelectionProblem, chosen: np.ndarray) -> np.ndarray:
    """Greedy repair: enforce every rule's [lower, upper] selection bounds."""
    chosen = chosen.copy()
    w = problem.weights
    for j in range(problem.n_rules):
        members = np.flatnonzero(problem.membership[j])
        sel = members[chosen[members]]
        # Below lower bound: add the highest-weight unchosen members.
        deficit = int(problem.lower[j] - sel.size)
        if deficit > 0:
            unchosen = members[~chosen[members]]
            order = unchosen[np.argsort(-w[unchosen], kind="stable")]
            chosen[order[:deficit]] = True
        # Above upper bound: drop the lowest-weight chosen members, but only
        # those whose removal cannot break another rule's lower bound.
        sel = members[chosen[members]]
        excess = int(sel.size - problem.upper[j])
        if excess > 0:
            order = sel[np.argsort(w[sel], kind="stable")]
            removed = 0
            for i in order:
                if removed >= excess:
                    break
                chosen[i] = False
                ok = True
                for jj in np.flatnonzero(problem.membership[:, i]):
                    mem = np.flatnonzero(problem.membership[jj])
                    if chosen[mem].sum() < problem.lower[jj]:
                        ok = False
                        break
                if ok:
                    removed += 1
                else:
                    chosen[i] = True
    return chosen


def greedy_selection(problem: SelectionProblem) -> np.ndarray:
    """Weight-greedy feasible selection (fallback when the LP fails)."""
    chosen = np.zeros(problem.n_candidates, dtype=bool)
    return _repair(problem, chosen)


def solve_selection(problem: SelectionProblem) -> np.ndarray:
    """Solve Eq. 5; returns a boolean selection over candidates.

    LP-relax, round at 0.5 weighted by fractional value, then repair.
    """
    if problem.n_candidates == 0:
        return np.zeros(0, dtype=bool)
    frac = solve_lp_relaxation(problem)
    if frac is None:
        return greedy_selection(problem)
    chosen = frac > 0.5
    return _repair(problem, chosen)
