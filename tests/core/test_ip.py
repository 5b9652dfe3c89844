"""Tests for the IP base-instance selection (Eq. 5)."""

import numpy as np
import pytest

from repro.core import (
    build_selection_problem,
    greedy_selection,
    solve_lp_relaxation,
    solve_selection,
)


def _problem(weights, pools, k=2, eta=10):
    w = np.asarray(weights, dtype=float)
    pool_arrays = [np.asarray(p, dtype=np.intp) for p in pools]
    return build_selection_problem(w, pool_arrays, k=k, eta=eta)


def _drawn_problem(seed):
    """A random Eq. 5 problem.  Odd seeds add a pool that joins two others
    (overlapping them) and a shuffled pool of the whole union, under a
    larger ``k``: their bounds can contradict the smaller pools' bounds.
    From seed % 4 == 2 on, the weights are the borderline weights 1 and 3
    exactly, as the IP selector passes them: their ties leave several
    optima, and which one HiGHS returns depends on its options."""
    rng = np.random.default_rng(seed)
    pools = [
        rng.choice(40, size=rng.integers(3, 15), replace=False)
        for _ in range(rng.integers(1, 5))
    ]
    if seed % 2:
        pools.append(np.concatenate(pools[:2]))
        pools.append(rng.permutation(np.unique(np.concatenate(pools))))
    union = np.unique(np.concatenate(pools))
    weights = rng.choice([1.0, 3.0], size=union.size)
    if seed % 4 < 2:
        weights += rng.uniform(0, 0.1, union.size)
    problem, _ = build_selection_problem(
        weights, pools, k=int(rng.integers(1, 4 + 3 * (seed % 2))), eta=int(rng.integers(2, 20))
    )
    return problem


class TestBuildProblem:
    def test_membership_matrix(self):
        problem, union = _problem([1, 1, 1], [[0, 1], [1, 2]])
        np.testing.assert_array_equal(union, [0, 1, 2])
        np.testing.assert_array_equal(
            problem.membership, [[True, True, False], [False, True, True]]
        )
        # An unsorted pool that overlaps the others and repeats an index.
        problem, union = _problem([1, 1, 1, 1, 1], [[3, 8], [9, 5, 3], [8, 5, 8, 1]])
        np.testing.assert_array_equal(union, [1, 3, 5, 8, 9])
        np.testing.assert_array_equal(
            problem.membership,
            [
                [False, True, False, True, False],
                [False, True, True, False, True],
                [True, False, True, True, False],
            ],
        )
        np.testing.assert_array_equal(problem.lower, [2, 3, 3])

    def test_lower_clamped_to_pool_size(self):
        problem, _ = _problem([1, 1], [[0, 1]], k=5, eta=10)
        assert problem.lower[0] == 2  # pool smaller than k+1

    def test_upper_at_least_lower(self):
        problem, _ = _problem([1] * 5, [[0, 1, 2, 3, 4]], k=3, eta=2)
        assert problem.upper[0] >= problem.lower[0]

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="weights length"):
            _problem([1, 1], [[0, 1, 2]])


class TestSolvers:
    @pytest.mark.parametrize("seed", range(40))
    def test_lp_scalar_bounds_match_per_variable_bounds(self, seed):
        """One (0, 1) pair for every variable hands HiGHS the same LP as a
        list of p pairs: the solutions are identical.  The relaxation fails
        (None) exactly where ``linprog`` does."""
        from scipy.optimize import linprog

        problem = _drawn_problem(seed)
        A = problem.membership.astype(np.float64)
        res = linprog(
            -problem.weights,
            A_ub=np.vstack([A, -A]),
            b_ub=np.concatenate([problem.upper, -problem.lower]).astype(np.float64),
            bounds=[(0.0, 1.0)] * problem.n_candidates,
            method="highs",
        )
        got = solve_lp_relaxation(problem)
        if res.success:
            assert got.tobytes() == np.clip(res.x, 0.0, 1.0).tobytes()
        else:
            assert got is None

    def test_drawn_problems_reach_both_outcomes(self):
        """The draws above include problems the solver finds infeasible."""
        outcomes = {solve_lp_relaxation(_drawn_problem(seed)) is None for seed in range(40)}
        assert outcomes == {True, False}

    def test_lp_relaxation_feasible(self):
        problem, _ = _problem([3, 1, 1, 1], [[0, 1], [2, 3]], k=1, eta=4)
        frac = solve_lp_relaxation(problem)
        assert frac is not None
        counts = problem.membership.astype(float) @ frac
        assert np.all(counts >= problem.lower - 1e-6)
        assert np.all(counts <= problem.upper + 1e-6)

    def test_solution_respects_bounds(self):
        rng = np.random.default_rng(0)
        pools = [rng.choice(30, size=10, replace=False) for _ in range(3)]
        union = np.unique(np.concatenate(pools))
        weights = rng.choice([1.0, 3.0], size=union.size)
        problem, _ = build_selection_problem(weights, pools, k=2, eta=12)
        chosen = solve_selection(problem)
        counts = problem.membership.astype(int) @ chosen
        assert np.all(counts >= problem.lower)
        assert np.all(counts <= problem.upper)

    def test_prefers_heavy_weights(self):
        # Two pools, disjoint; one candidate per pool much heavier.
        problem, union = _problem(
            [10.0, 1.0, 1.0, 10.0, 1.0, 1.0],
            [[0, 1, 2], [3, 4, 5]],
            k=1,
            eta=4,
        )
        chosen = solve_selection(problem)
        assert chosen[0] and chosen[3]

    def test_greedy_fallback_feasible(self):
        problem, _ = _problem([1, 2, 3, 4], [[0, 1, 2, 3]], k=2, eta=3)
        chosen = greedy_selection(problem)
        counts = problem.membership.astype(int) @ chosen
        assert np.all(counts >= problem.lower)
        assert np.all(counts <= problem.upper)

    def test_greedy_picks_heaviest_for_lower_bound(self):
        problem, _ = _problem([1, 5, 2, 4], [[0, 1, 2, 3]], k=1, eta=2)
        chosen = greedy_selection(problem)
        # lower bound 2: the two heaviest (indices 1, 3) must be chosen.
        assert chosen[1] and chosen[3]

    def test_empty_problem(self):
        problem, union = build_selection_problem(
            np.empty(0), [], k=2, eta=10
        )
        assert solve_selection(problem).size == 0

    def test_shared_instance_between_rules(self):
        # Instance 1 is in both pools; selecting it serves both lower bounds.
        problem, union = _problem([1.0, 5.0, 1.0], [[0, 1], [1, 2]], k=1, eta=2)
        chosen = solve_selection(problem)
        counts = problem.membership.astype(int) @ chosen
        assert np.all(counts >= problem.lower)

    def test_repair_does_not_break_other_rules(self):
        # Rule 0 over-covered; removal of shared instance must not push
        # rule 1 below its lower bound.
        rng = np.random.default_rng(1)
        pools = [np.arange(8), np.array([7, 8])]
        weights = np.ones(9)
        problem, _ = build_selection_problem(weights, pools, k=1, eta=4)
        chosen = solve_selection(problem)
        counts = problem.membership.astype(int) @ chosen
        assert counts[1] >= problem.lower[1]
