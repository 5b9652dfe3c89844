"""Inflection-point analysis of augmentation (paper §6).

"There is generally an inflection point in terms of the number of data
points added where the cost to overall model performance starts to
outweigh the improvement in MRA."  This module sweeps augmentation amounts
and locates that point, attributing it to the Stefanowski (2016) data
difficulty factors the paper cites (class overlap created by synthetic
instances inside other classes' regions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.objective import evaluate_model
from repro.data.dataset import Dataset
from repro.engine.session import edit
from repro.models.base import TrainingAlgorithm
from repro.rules.ruleset import FeedbackRuleSet


@dataclass(frozen=True)
class InflectionTrace:
    """J̄ decomposition as augmentation grows.

    Arrays are aligned: entry i is measured after ``n_added[i]`` synthetic
    instances.
    """

    n_added: np.ndarray
    mra: np.ndarray
    f1_outside: np.ndarray
    j_weighted: np.ndarray

    @property
    def inflection_index(self) -> int | None:
        """First index where J̄ starts decreasing while MRA kept rising.

        Returns ``None`` if J̄ is non-decreasing end to end (no inflection
        within the sweep — the paper notes the point depends on dataset and
        model and may lie beyond any given budget).
        """
        j = self.j_weighted
        for i in range(1, j.size):
            if j[i] < j[i - 1] - 1e-9 and self.mra[i] >= self.mra[i - 1] - 1e-9:
                return i
        return None

    @property
    def inflection_n_added(self) -> int | None:
        i = self.inflection_index
        return None if i is None else int(self.n_added[i])


def trace_inflection(
    train: Dataset,
    test: Dataset,
    algorithm: TrainingAlgorithm,
    frs: FeedbackRuleSet,
    *,
    eta: int = 20,
    max_iterations: int = 20,
    mod_strategy: str = "relabel",
    random_state=42,
) -> InflectionTrace:
    """Run FROTE with acceptance disabled-in-spirit (``accept_equal=True``
    and a generous quota) and record the held-out decomposition per batch.

    Unlike the production loop, the sweep *keeps adding* instances even
    when the training objective stalls, because the inflection point is by
    definition past the productive region.
    """
    points_n: list[int] = [0]
    initial = evaluate_model(algorithm(train), test, frs)
    mras = [initial.mra]
    f1s = [initial.f1_outside]
    js = [initial.j_weighted()]

    def record(model) -> float:
        ev = evaluate_model(model, test, frs)
        mras.append(ev.mra)
        f1s.append(ev.f1_outside)
        js.append(ev.j_weighted())
        return ev.j_weighted()

    result = (
        edit(train)
        .with_rules(frs)
        .with_algorithm(algorithm)
        .configure(
            tau=max_iterations,
            q=float("inf"),  # quota never binds; iterations bound the sweep
            eta=eta,
            mod_strategy=mod_strategy,
            accept_equal=True,
            mra_weight=1.0,  # chase MRA only, exposing the F1 cost
            random_state=random_state,
        )
        .track_metric(record)
        .run()
    )
    for rec in result.history:
        if rec.accepted:
            points_n.append(rec.n_added_total)
    # Align: record() fired once per accepted batch, in order.
    n = min(len(points_n), len(mras))
    return InflectionTrace(
        n_added=np.asarray(points_n[:n]),
        mra=np.asarray(mras[:n]),
        f1_outside=np.asarray(f1s[:n]),
        j_weighted=np.asarray(js[:n]),
    )


def format_inflection(trace: InflectionTrace) -> str:
    """Render the trace as an aligned text table with the inflection mark."""
    lines = ["n_added   MRA     F1(out)  J-bar"]
    inflection = trace.inflection_index
    for i in range(trace.n_added.size):
        mark = "  <- inflection" if inflection == i else ""
        lines.append(
            f"{int(trace.n_added[i]):7d}  {trace.mra[i]:.3f}   "
            f"{trace.f1_outside[i]:.3f}    {trace.j_weighted[i]:.3f}{mark}"
        )
    if inflection is None:
        lines.append("(no inflection within the sweep)")
    return "\n".join(lines)
