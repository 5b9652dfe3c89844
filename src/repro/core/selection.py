"""Base-instance selection strategies (paper §4.1).

Given the per-rule base populations and the per-iteration budget η, a
strategy returns, for each rule, positions (into that rule's population) of
the base instances to synthesize from:

* **random** — per-rule uniform sampling (the paper's default; empirically
  competitive, possibly because it avoids overfitting the training-set
  objective);
* **ip** — the integer program of Eq. 5 over Han-2005 borderline weights;
* **online** — supplement's online-learning proxy: score candidate base
  instances by the objective improvement predicted by an incrementally
  updated surrogate model.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.core.ip import build_selection_problem, solve_selection
from repro.core.preselect import BasePopulation
from repro.data.dataset import Dataset
from repro.engine.registry import SELECTORS, register_selector
from repro.sampling.borderline import classify_borderline


class SelectionContext:
    """Everything a strategy may consult when selecting base instances.

    ``cache_token`` identifies the active dataset revision (the engine
    passes its ``dataset_version``); strategies may memoize work derived
    from the dataset and the model predictions against it, since both only
    change when the token does.
    """

    def __init__(
        self,
        dataset: Dataset,
        model_predictions: np.ndarray | None,
        *,
        k: int,
        rng: np.random.Generator,
        frs=None,
        cache_token: object | None = None,
    ) -> None:
        self.dataset = dataset
        self.model_predictions = model_predictions
        self.k = k
        self.rng = rng
        self.frs = frs  # needed by the online-proxy strategy
        self.cache_token = cache_token


class BaseInstanceSelector(Protocol):
    """Strategy protocol: population + budget -> per-rule positions.

    A selector may additionally define a class attribute
    ``needs_predictions = False`` to tell the engine's
    :class:`~repro.engine.stages.SelectionStage` to skip the per-iteration
    model-prediction pass (the engine assumes ``True`` when absent).
    """

    def select(
        self, bp: BasePopulation, eta: int, ctx: SelectionContext
    ) -> list[np.ndarray]:
        ...


def _allocate_per_rule(eta: int, m: int) -> list[int]:
    """Split the budget η as evenly as possible across m rules."""
    if m == 0:
        return []
    base, rem = divmod(eta, m)
    return [base + (1 if j < rem else 0) for j in range(m)]


@register_selector("random")
class RandomSelector:
    """Uniform per-rule sampling from the base population (with replacement
    when the quota exceeds the pool, so η instances are always produced)."""

    needs_predictions = False

    def select(
        self, bp: BasePopulation, eta: int, ctx: SelectionContext
    ) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for pop, quota in zip(bp.per_rule, _allocate_per_rule(eta, len(bp))):
            if pop.size == 0 or quota == 0:
                out.append(np.empty(0, dtype=np.intp))
                continue
            replace = quota > pop.size
            out.append(
                ctx.rng.choice(pop.size, size=quota, replace=replace).astype(np.intp)
            )
        return out


@register_selector("ip")
class IPSelector:
    """Eq. 5 selection over borderline weights.

    Weights follow the supplement: model-prediction neighbourhoods with
    ``k = 10``, borderline points weighted 3, safe and noisy points 1.

    After a rejected batch the engine asks again with the same dataset
    revision, population and budget; the integer program then has the same
    solution, which the selector keeps per ``(cache_token, population,
    eta, k)`` instead of solving again.  The solver draws no random
    numbers, so a kept solution changes no later draw.
    """

    def __init__(self, *, k_classify: int = 10, borderline_weight: float = 3.0) -> None:
        self.k_classify = k_classify
        self.borderline_weight = borderline_weight
        # (token, union, analysis) of the last classified union.
        self._analysis_cache: tuple[object, np.ndarray, object] | None = None
        # (population, (token, eta, k), positions) of the last solved call.
        self._selection_cache: tuple[object, tuple, list[np.ndarray]] | None = None

    def _borderline_analysis(self, union: np.ndarray, ctx: SelectionContext):
        """Classify the candidate union, memoized per dataset revision and union.

        The dataset rows and the model predictions are functions of the
        active dataset revision, so between accepted batches the
        (expensive) neighbour classification is reused.  The union is part
        of the key: a streamed rule changes it without a new revision.
        """
        token = ctx.cache_token
        cached = self._analysis_cache
        if (
            token is not None
            and cached is not None
            and cached[0] == token
            and np.array_equal(cached[1], union)
        ):
            return cached[2]
        labels = (
            ctx.model_predictions[union]
            if ctx.model_predictions is not None
            else ctx.dataset.y[union]
        )
        analysis = classify_borderline(
            ctx.dataset.X.take(union),
            labels,
            k=self.k_classify,
            weights={"noisy": 1.0, "safe": 1.0, "borderline": self.borderline_weight},
        )
        if token is not None:
            self._analysis_cache = (token, union.copy(), analysis)
        return analysis

    def select(
        self, bp: BasePopulation, eta: int, ctx: SelectionContext
    ) -> list[np.ndarray]:
        union = bp.union_indices
        if union.size == 0:
            return [np.empty(0, dtype=np.intp) for _ in bp.per_rule]
        key = (ctx.cache_token, eta, ctx.k)
        cached = self._selection_cache
        if ctx.cache_token is not None and cached and cached[0] is bp and cached[1] == key:
            return [positions.copy() for positions in cached[2]]
        analysis = self._borderline_analysis(union, ctx)
        problem, candidates = build_selection_problem(
            analysis.weights,
            [pop.indices for pop in bp.per_rule],
            k=ctx.k,
            eta=eta,
        )
        chosen = solve_selection(problem)
        chosen_rows = candidates[chosen]
        selected = [
            np.flatnonzero(np.isin(pop.indices, chosen_rows)).astype(np.intp)
            for pop in bp.per_rule
        ]
        if ctx.cache_token is not None:
            # Keeping ``bp`` itself, not its id, keeps the id from being reused.
            self._selection_cache = (bp, key, selected)
        return [positions.copy() for positions in selected]


def make_selector(name: str, **kwargs) -> BaseInstanceSelector:
    """Instantiate a registered selection strategy by name.

    Looks the name up in :data:`repro.engine.SELECTORS`, so strategies
    registered from user code (via
    :func:`repro.engine.register_selector`) work everywhere a built-in
    name does, including :class:`~repro.core.config.FroteConfig`.
    """
    return SELECTORS.create(name, **kwargs)
