"""FROTE's rule-constrained synthetic instance generation (paper §4.2 + supplement).

Differences from vanilla SMOTE, per the paper:

1. neighbours are *not* required to share the base instance's class label —
   they must satisfy the same (possibly relaxed) feedback rule;
2. the generated instance must satisfy the **original, unrelaxed** rule;
   when the rule was relaxed, special windowing logic forces condition
   attributes back into compliance;
3. the synthetic label is sampled from the rule's distribution π instead of
   copying the base label.

Numeric condition attributes use the supplement's window logic: the
conditions on an attribute define a (min, max) window, the base/neighbour
values tighten it when they already fall inside, and the value is drawn
uniformly from the tightest window.

Candidate batches are generated with NumPy array ops:
:func:`sample_in_window_batch` and :func:`pick_categorical_batch` process a
whole column at once while consuming the RNG stream exactly like the
scalar :func:`sample_in_window` / :func:`pick_categorical` loops they
replace, so fixed-seed outputs are unchanged.  The generator can also
reuse its fitted neighbour index across edit-loop iterations via the
``cache_token`` argument (see :meth:`RuleConstrainedGenerator.generate`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.table import Table
from repro.neighbors import BruteKNN, TableNeighborSpace
from repro.rules.predicate import EQ, GE, GT, LE, LT, NE, Predicate
from repro.rules.rule import FeedbackRule
from repro.sampling.interpolation import (
    category_counts,
    choose_neighbors,
    interpolate_numeric,
)


@dataclass(frozen=True)
class NumericWindow:
    """Feasible open/closed interval for one numeric attribute.

    Attributes
    ----------
    lo, hi : float
        Window endpoints (infinite when unbounded).
    lo_strict, hi_strict : bool
        Whether the matching endpoint is excluded.
    eq : float or None
        Exact required value; overrides the interval when set.
    """

    lo: float = -np.inf
    hi: float = np.inf
    lo_strict: bool = False
    hi_strict: bool = False
    eq: float | None = None

    def contains(self, v: float) -> bool:
        """Return whether ``v`` satisfies the window."""
        if self.eq is not None:
            return v == self.eq
        lo_ok = v > self.lo if self.lo_strict else v >= self.lo
        hi_ok = v < self.hi if self.hi_strict else v <= self.hi
        return lo_ok and hi_ok


def window_from_conditions(conditions: tuple[Predicate, ...]) -> NumericWindow:
    """Fold numeric conditions on one attribute into a :class:`NumericWindow`.

    Parameters
    ----------
    conditions : tuple of Predicate
        All predicates of one rule on a single numeric attribute.

    Returns
    -------
    NumericWindow
        The tightest interval implied by the conditions.
    """
    lo, hi = -np.inf, np.inf
    lo_strict = hi_strict = False
    eq: float | None = None
    for p in conditions:
        v = float(p.value)
        if p.operator == EQ:
            eq = v
        elif p.operator in (GT, GE):
            strict = p.operator == GT
            if v > lo or (v == lo and strict):
                lo, lo_strict = v, strict
        elif p.operator in (LT, LE):
            strict = p.operator == LT
            if v < hi or (v == hi and strict):
                hi, hi_strict = v, strict
    return NumericWindow(lo, hi, lo_strict, hi_strict, eq)


def _open_interval(lo: float, hi: float, lo_strict: bool, hi_strict: bool) -> tuple[float, float]:
    """Shrink strict endpoints by one ulp so uniform sampling respects them."""
    if lo_strict and np.isfinite(lo):
        lo = np.nextafter(lo, np.inf)
    if hi_strict and np.isfinite(hi):
        hi = np.nextafter(hi, -np.inf)
    return lo, hi


def _fallback_interval(
    lo: float, hi: float, attr_range: tuple[float, float]
) -> tuple[float, float, bool]:
    """Resolve the column-constant fallback when the SMOTE segment misses.

    Returns ``(fb_lo, fb_hi, fb_draws)`` — the interval every
    segment-missing row samples from, and whether sampling consumes a
    random draw (degenerate intervals return their endpoint draw-free,
    mirroring the scalar :func:`sample_in_window` branches).
    """
    r_lo, r_hi = attr_range
    width = max(r_hi - r_lo, 1.0)
    cand_lo, cand_hi = max(lo, r_lo), min(hi, r_hi)
    if cand_lo <= cand_hi:
        return cand_lo, cand_hi, cand_lo < cand_hi
    # Window lies entirely outside observed range: synthesize near its edge.
    if np.isfinite(lo) and np.isfinite(hi):
        return lo, hi, lo < hi
    if np.isfinite(lo):
        return lo, lo + width, True
    if np.isfinite(hi):
        return hi - width, hi, True
    return r_lo, r_hi, True


def sample_in_window(
    window: NumericWindow,
    base_v: float,
    nbr_v: float,
    attr_range: tuple[float, float],
    rng: np.random.Generator,
) -> float:
    """Draw one value satisfying ``window``, preferring the SMOTE segment.

    Priority order (the supplement's "tightest window"):

    1. the base-neighbour segment intersected with the window;
    2. the window intersected with the attribute's observed range;
    3. the window alone (midpoint when degenerate, finite bound ± range
       width when half-open).

    Parameters
    ----------
    window : NumericWindow
        Feasible interval from the rule's conditions.
    base_v, nbr_v : float
        Attribute values of the base instance and chosen neighbour.
    attr_range : tuple of float
        Observed (min, max) of the attribute in the reference table.
    rng : numpy.random.Generator
        Source of the (at most one) uniform draw.

    Returns
    -------
    float
        A value inside ``window``.
    """
    if window.eq is not None:
        return float(window.eq)
    lo, hi = _open_interval(window.lo, window.hi, window.lo_strict, window.hi_strict)
    seg_lo, seg_hi = min(base_v, nbr_v), max(base_v, nbr_v)
    tight_lo, tight_hi = max(lo, seg_lo), min(hi, seg_hi)
    if tight_lo <= tight_hi:
        return float(rng.uniform(tight_lo, tight_hi)) if tight_lo < tight_hi else float(tight_lo)
    fb_lo, fb_hi, fb_draws = _fallback_interval(lo, hi, attr_range)
    return float(rng.uniform(fb_lo, fb_hi)) if fb_draws else float(fb_lo)


def sample_in_window_batch(
    window: NumericWindow,
    base_v: np.ndarray,
    nbr_v: np.ndarray,
    attr_range: tuple[float, float],
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized :func:`sample_in_window` over whole candidate columns.

    Parameters
    ----------
    window : NumericWindow
        Feasible interval from the rule's conditions (shared by all rows).
    base_v, nbr_v : ndarray of shape (n,)
        Base and neighbour attribute values per synthetic candidate.
    attr_range : tuple of float
        Observed (min, max) of the attribute in the reference table.
    rng : numpy.random.Generator
        Consumes exactly one uniform draw per row whose interval is
        non-degenerate, in row order — the same stream consumption as a
        per-row loop over :func:`sample_in_window`.

    Returns
    -------
    ndarray of shape (n,)
        Values inside ``window``.
    """
    base_v = np.asarray(base_v, dtype=np.float64)
    nbr_v = np.asarray(nbr_v, dtype=np.float64)
    n = base_v.shape[0]
    if window.eq is not None:
        return np.full(n, float(window.eq))
    lo, hi = _open_interval(window.lo, window.hi, window.lo_strict, window.hi_strict)
    tight_lo = np.maximum(lo, np.minimum(base_v, nbr_v))
    tight_hi = np.minimum(hi, np.maximum(base_v, nbr_v))
    in_segment = tight_lo <= tight_hi
    fb_lo, fb_hi, fb_draws = _fallback_interval(lo, hi, attr_range)
    draw_lo = np.where(in_segment, tight_lo, fb_lo)
    draw_hi = np.where(in_segment, tight_hi, fb_hi)
    draws = np.where(in_segment, tight_lo < tight_hi, fb_draws)
    vals = draw_lo.copy()  # degenerate intervals collapse to their endpoint
    rows = np.flatnonzero(draws)
    if rows.size:
        # a + (b - a) * random() is exactly Generator.uniform(a, b), so the
        # batch matches the scalar loop's stream draw for draw.
        u = rng.random(rows.size)
        vals[rows] = draw_lo[rows] + (draw_hi[rows] - draw_lo[rows]) * u
    return vals


def _allowed_codes(
    conditions: tuple[Predicate, ...], categories: tuple[str, ...]
) -> list[int]:
    """Category codes admitted by EQ/NE conditions, ascending.

    Raises
    ------
    ValueError
        If the conditions admit no categorical value (unsatisfiable rule).
    """
    allowed = set(range(len(categories)))
    for p in conditions:
        code = categories.index(str(p.value))
        if p.operator == EQ:
            allowed &= {code}
        elif p.operator == NE:
            allowed -= {code}
    if not allowed:
        raise ValueError("conditions admit no categorical value (unsatisfiable rule)")
    return sorted(allowed)


def pick_categorical(
    neighbor_codes: np.ndarray,
    conditions: tuple[Predicate, ...],
    categories: tuple[str, ...],
    rng: np.random.Generator,
) -> int:
    """Pick the majority neighbour value subject to the rule's conditions.

    Values are tried in decreasing neighbour frequency (the supplement's
    sorted-candidates procedure); if every observed value violates a
    condition, a uniformly random *allowed* category is used.

    Parameters
    ----------
    neighbor_codes : ndarray of shape (k,) of integer codes
        One sample's neighbour values for the attribute.
    conditions : tuple of Predicate
        The rule's EQ/NE conditions on the attribute.
    categories : tuple of str
        The attribute's category alphabet.
    rng : numpy.random.Generator
        Consulted only in the all-observed-violate fallback.

    Returns
    -------
    int
        An allowed category code.
    """
    allowed_list = _allowed_codes(conditions, categories)
    allowed = set(allowed_list)
    counts = np.bincount(neighbor_codes, minlength=len(categories))
    order = np.argsort(-counts, kind="stable")
    for code in order:
        if counts[code] > 0 and int(code) in allowed:
            return int(code)
    return int(allowed_list[rng.integers(len(allowed_list))])


def pick_categorical_batch(
    codes: np.ndarray,
    conditions: tuple[Predicate, ...],
    categories: tuple[str, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized :func:`pick_categorical` over a neighbour-code matrix.

    Parameters
    ----------
    codes : ndarray of shape (n, k) of integer codes
        Row ``i`` holds candidate ``i``'s neighbour values.
    conditions : tuple of Predicate
        The rule's EQ/NE conditions on the attribute.
    categories : tuple of str
        The attribute's category alphabet.
    rng : numpy.random.Generator
        Consulted once per row whose observed values all violate the
        conditions, in row order — matching the scalar loop's stream.

    Returns
    -------
    ndarray of shape (n,) of int64
        One allowed category code per row.
    """
    allowed_list = np.asarray(_allowed_codes(conditions, categories), dtype=np.int64)
    n_cats = len(categories)
    allowed_mask = np.zeros(n_cats, dtype=bool)
    allowed_mask[allowed_list] = True
    counts = category_counts(codes, n_cats)
    # Observed + allowed codes score by frequency; argmax breaks frequency
    # ties toward the lowest code, exactly like the scalar stable argsort.
    score = np.where(allowed_mask[None, :] & (counts > 0), counts, -1)
    vals = np.argmax(score, axis=1).astype(np.int64)
    no_valid = score[np.arange(score.shape[0]), vals] < 0
    rows = np.flatnonzero(no_valid)
    if rows.size:
        vals[rows] = allowed_list[rng.integers(0, allowed_list.size, size=rows.size)]
    return vals


@dataclass(frozen=True)
class GeneratedBatch:
    """Synthetic instances plus their sampled labels."""

    table: Table
    labels: np.ndarray

    @property
    def n(self) -> int:
        """Number of generated rows."""
        return self.table.n_rows


class RuleConstrainedGenerator:
    """Generate synthetic instances that satisfy a feedback rule.

    Parameters
    ----------
    rule : FeedbackRule
        The original, unrelaxed feedback rule the output must satisfy.
    reference : Table
        Table providing attribute ranges for window fallbacks and the
        neighbour-space scaling (typically the current active dataset).
    k : int, default 5
        Neighbours per base instance (paper: 5).
    distance_backend : str or backend, optional
        ``None`` (default) keeps the exact float64 neighbour search; a
        :data:`repro.engine.DISTANCE_BACKENDS` name opts into the blocked
        kernel layer (:mod:`repro.neighbors.kernels`).
    space : TableNeighborSpace, optional
        ``reference`` already fitted into its neighbour space.  The edit
        loop fits one per active-dataset version and hands it to every
        rule's generator; without it the generator fits its own.
    """

    def __init__(
        self,
        rule: FeedbackRule,
        reference: Table,
        *,
        k: int = 5,
        distance_backend=None,
        space: TableNeighborSpace | None = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if space is None:
            space = TableNeighborSpace().fit(reference)
        elif space.schema_ != reference.schema:
            raise ValueError("space was fitted on a different schema")
        self.rule = rule
        self.k = k
        self.distance_backend = distance_backend
        self.schema = reference.schema
        self._space = space
        self._index_cache: tuple[object, np.ndarray, BruteKNN | None] | None = None
        self._ranges = space.bounds_
        self._conditions: dict[str, tuple[Predicate, ...]] = {
            attr: rule.clause.predicates_on(attr) for attr in rule.clause.attributes
        }
        self._windows: dict[str, NumericWindow] = {
            attr: window_from_conditions(conds)
            for attr, conds in self._conditions.items()
            if self.schema[attr].is_numeric
        }

    # ------------------------------------------------------------------ #
    def _fitted_index(
        self, pool: Table, cache_token: object | None
    ) -> tuple[np.ndarray, BruteKNN | None]:
        """Encode ``pool`` and fit its KNN index, reusing a cached fit.

        When ``cache_token`` is not ``None`` and matches the token of the
        previous call, the cached ``(encoded, index)`` pair is returned
        without re-encoding or re-fitting — the edit loop passes its
        dataset version so rejected iterations (pool unchanged) skip the
        rebuild.
        """
        if (
            cache_token is not None
            and self._index_cache is not None
            and self._index_cache[0] == cache_token
        ):
            return self._index_cache[1], self._index_cache[2]
        E = self._space.encode(pool)
        knn = (
            BruteKNN(self._space.metric_, backend=self.distance_backend).fit(E)
            if pool.n_rows > 1
            else None
        )
        if cache_token is not None:
            self._index_cache = (cache_token, E, knn)
        return E, knn

    # ------------------------------------------------------------------ #
    def generate(
        self,
        pool: Table,
        base_positions: np.ndarray,
        rng: np.random.Generator,
        *,
        cache_token: object | None = None,
    ) -> GeneratedBatch:
        """Generate one synthetic instance per base position.

        Parameters
        ----------
        pool : Table
            The rule's base population (coverage of the possibly relaxed
            rule).
        base_positions : ndarray of int
            Row positions into ``pool`` to use as base instances.
        rng : numpy.random.Generator
            Source for neighbour choice, interpolation, and labels.
        cache_token : hashable, optional
            Identity token for ``pool``.  Consecutive calls with the same
            non-``None`` token reuse the fitted neighbour index instead of
            re-encoding and re-fitting it; pass a fresh token (or ``None``)
            whenever the pool contents change.

        Returns
        -------
        GeneratedBatch
            The synthetic rows and their π-sampled labels.

        Raises
        ------
        ValueError
            If ``pool`` is empty while positions were requested.
        """
        base_positions = np.asarray(base_positions, dtype=np.intp)
        if base_positions.size == 0:
            return GeneratedBatch(Table.empty(self.schema), np.empty(0, dtype=np.int64))
        if pool.n_rows == 0:
            raise ValueError("empty base population")

        E, knn = self._fitted_index(pool, cache_token)
        if pool.n_rows > 1:
            k_eff = min(self.k, pool.n_rows - 1)
            assert knn is not None
            _, nbr_idx = knn.kneighbors(E[base_positions], k_eff, exclude_self=True)
        else:
            # Single-instance pool: the base is its own neighbourhood.
            nbr_idx = np.zeros((base_positions.size, 1), dtype=np.intp)

        n = base_positions.size
        chosen_nbr, omegas = choose_neighbors(nbr_idx, rng)

        columns: dict[str, np.ndarray] = {}
        for spec in self.schema:
            col = pool.column(spec.name)
            conds = self._conditions.get(spec.name, ())
            if spec.is_numeric:
                base_v = col[base_positions]
                nbr_v = col[chosen_nbr]
                if not conds:
                    columns[spec.name] = interpolate_numeric(base_v, nbr_v, omegas)
                else:
                    columns[spec.name] = sample_in_window_batch(
                        self._windows[spec.name],
                        base_v,
                        nbr_v,
                        self._ranges[spec.name],
                        rng,
                    )
            else:
                columns[spec.name] = pick_categorical_batch(
                    col[nbr_idx], conds, spec.categories, rng
                )

        table = Table(self.schema, columns, copy=False)
        labels = self.rule.sample_labels(n, rng)
        return GeneratedBatch(table, labels)
