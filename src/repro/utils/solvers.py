"""The two compiled solvers the library calls: L-BFGS-B and HiGHS.

This is the only module in ``repro`` that touches SciPy's optimizers.  It
drives the same compiled code that :func:`scipy.optimize.minimize`
(``method="L-BFGS-B"``) and :func:`scipy.optimize.linprog`
(``method="highs"``) drive, with the same inputs and options, but without
their per-call Python layers (``ScalarFunction``/``MemoizeJac``, input
cleaning, ``scipy.sparse`` and the result objects).  The same solver fed
the same bytes returns the same bytes, so every fit and every selection
stays bitwise what the public functions give; the parity tests compare
the two on drawn problems, so a SciPy release that moves either binding
fails them instead of silently changing a result.

Both bindings are private SciPy names whose signatures date from SciPy
1.15 (the C ``setulb`` and the vendored ``highspy``), the floor in
``pyproject.toml``.  SciPy loads on first use, so ``import repro`` does
without it.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# minimize(method="L-BFGS-B")'s defaults.
_MAXCOR = 10
_FTOL = 2.2204460492503131e-09
_MAXFUN = 15000
_MAXLS = 20
# setulb's task codes.
_FG, _NEW_X, _STOP = 3, 1, 5
_STOP_ITERATIONS, _STOP_EVALUATIONS = 504, 502


def lbfgsb(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    *,
    max_iter: int,
    gtol: float,
) -> tuple[np.ndarray, int]:
    """Minimize ``fun`` (loss and gradient) without bounds by L-BFGS-B.

    The reverse-communication loop of SciPy's ``_minimize_lbfgsb`` over
    ``setulb``, with its defaults (10 corrections, ``ftol``
    2.220446049250313e-09, 20 line-search steps, 15000 evaluations).
    ``fun`` gets a copy of the iterate, is evaluated once at ``x0`` and
    again only at an iterate that differs from the last one evaluated,
    as ``ScalarFunction`` does.  Returns the solution and the number of
    iterations (``minimize``'s ``nit``).
    """
    from scipy.optimize import _lbfgsb

    x = np.array(x0, dtype=np.float64).ravel()
    n = x.size
    m = _MAXCOR
    factr = _FTOL / np.finfo(float).eps
    nbd = np.zeros(n, np.int32)
    low = np.zeros(n, np.float64)
    up = np.zeros(n, np.float64)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m, np.float64)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29, np.float64)

    x_eval = x.copy()
    f, g = fun(x_eval.copy())
    n_eval = 1
    n_iter = 0
    while True:
        # setulb gets its own copy of the gradient, as in SciPy's loop.
        _lbfgsb.setulb(m, x, low, up, nbd, f, g.astype(np.float64), factr, gtol, wa,
                       iwa, task, lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == _FG:
            if not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f, g = fun(x_eval.copy())
                n_eval += 1
        elif task[0] == _NEW_X:
            n_iter += 1
            if n_iter >= max_iter:
                task[0], task[1] = _STOP, _STOP_ITERATIONS
            elif n_eval > _MAXFUN:
                task[0], task[1] = _STOP, _STOP_EVALUATIONS
        else:
            return x, n_iter


def highs_lp(
    c: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    b_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray | None:
    """Solve ``min c @ x  s.t.  A @ x <= b_ub,  lb <= x <= ub`` by HiGHS.

    ``A`` comes in CSC columns (``indptr``, ``indices``, ``data``), as
    ``linprog`` hands it to HiGHS, and the solver runs with the options
    ``linprog(method="highs")`` sets.  Returns the column values, or
    None exactly where ``linprog`` reports ``success=False``: a model
    status other than optimal, or a solution that fails its post-solve
    residual check (NaNs, bounds or rows violated by more than
    ``sqrt(1e-9) * 10``).
    """
    import scipy.optimize._highspy._core as _h

    numcol, numrow = c.size, b_ub.size
    lp = _h.HighsLp()
    lp.num_col_ = numcol
    lp.num_row_ = numrow
    lp.a_matrix_.num_col_ = numcol
    lp.a_matrix_.num_row_ = numrow
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.full(numrow, -_h.kHighsInf)
    lp.row_upper_ = b_ub
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data

    options = _h.HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual

    highs = _h._Highs()
    if (
        highs.passOptions(options) == _h.HighsStatus.kError
        or highs.passModel(lp) == _h.HighsStatus.kError
        or highs.run() == _h.HighsStatus.kError
        or highs.getModelStatus() != _h.HighsModelStatus.kOptimal
    ):
        return None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    slack = b_ub - solution.row_value
    fun = highs.getInfo().objective_function_value
    # linprog's _check_result, for inequality rows only.
    tol = np.sqrt(1e-9) * 10
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        return None
    if not np.all((x >= lb - tol) & (x <= ub + tol)) or (slack < -tol).any():
        return None
    return x
