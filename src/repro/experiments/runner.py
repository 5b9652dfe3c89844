"""Single-run and grid experiment execution.

One *run* = one FRS draw + one tcf split + (initial model, modified-data
model, FROTE-augmented model) evaluated on the held-out test set — the
three box-plot groups of the paper's Figures 2/3 and the Δ columns of its
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.core.config import FroteConfig
from repro.core.objective import Evaluation, evaluate_model
from repro.data.dataset import Dataset
from repro.engine.session import EditSession, edit
from repro.engine.state import FroteResult
from repro.experiments.setup import ExperimentContext, PreparedRun


@dataclass(frozen=True)
class RunMetrics:
    """Test-set metrics for one model within a run."""

    j_weighted: float
    mra: float
    f1_outside: float

    @classmethod
    def from_evaluation(cls, ev: Evaluation) -> "RunMetrics":
        return cls(ev.j_weighted(), ev.mra, ev.f1_outside)


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single experimental run."""

    initial: RunMetrics
    modified: RunMetrics  # after the mod strategy, before augmentation
    final: RunMetrics  # after FROTE
    n_added: int
    added_fraction: float
    iterations: int
    accepted: int
    frs_size: int
    tcf: float

    @property
    def delta_j(self) -> float:
        """ΔJ̄ of FROTE vs the initial model (paper Tables 2/3)."""
        return self.final.j_weighted - self.initial.j_weighted

    @property
    def delta_j_vs_modified(self) -> float:
        """final − mod improvement (paper's final-imp panels)."""
        return self.final.j_weighted - self.modified.j_weighted

    @property
    def delta_mra(self) -> float:
        return self.final.mra - self.initial.mra

    @property
    def delta_f1(self) -> float:
        return self.final.f1_outside - self.initial.f1_outside


def edit_session(
    train: Dataset, algorithm, frs, config: FroteConfig
) -> EditSession:
    """The :func:`repro.edit` session running ``config`` on ``train``.

    Fields are read with ``getattr``, not ``dataclasses.asdict``:
    ``asdict`` deep-copies a ``Generator`` ``random_state``, so the
    caller's stream would stop advancing.
    """
    return (
        edit(train)
        .with_rules(frs)
        .with_algorithm(algorithm)
        .configure(**{f.name: getattr(config, f.name) for f in fields(config)})
    )


def unmodified_model(result: FroteResult, algorithm, train: Dataset):
    """The model ``algorithm`` trains on ``train``, the run's input before
    its modification.

    That is the model the run's setup trained (``result.initial_model``)
    when the modification relabelled and dropped no row (always so under
    ``mod_strategy="none"``); a modification strategy reports every row
    it changes in those counts.  Otherwise the model is trained here.
    """
    if result.n_relabelled == result.n_dropped == 0:
        return result.initial_model
    return algorithm(train)


def execute_run(
    ctx: ExperimentContext,
    prepared: PreparedRun,
    *,
    config: FroteConfig,
    initial: RunMetrics | None = None,
) -> tuple[RunResult, FroteResult]:
    """Train/evaluate the three models of one run and run FROTE.

    The modified-data model is the one the session's setup trains, and
    the initial model is too when the modification changed nothing, so a
    run trains one model beyond the session's own fits at most.  Pass the
    ``initial`` metrics of an earlier call on the same ``prepared`` run
    (they do not depend on ``config``'s loop settings) to train none.
    """
    frs = prepared.frs
    test = prepared.test

    result = edit_session(prepared.train, ctx.algorithm, frs, config).run()
    modified = RunMetrics.from_evaluation(evaluate_model(result.initial_model, test, frs))
    if initial is None:
        initial_model = unmodified_model(result, ctx.algorithm, prepared.train)
        if initial_model is result.initial_model:
            initial = modified
        else:
            initial = RunMetrics.from_evaluation(evaluate_model(initial_model, test, frs))
    final = RunMetrics.from_evaluation(evaluate_model(result.model, test, frs))

    return (
        RunResult(
            initial=initial,
            modified=modified,
            final=final,
            n_added=result.n_added,
            added_fraction=result.added_fraction,
            iterations=result.iterations,
            accepted=result.accepted_iterations,
            frs_size=len(frs),
            tcf=float(np.round(_infer_tcf(prepared), 6)),
        ),
        result,
    )


def _infer_tcf(prepared: PreparedRun) -> float:
    n_cov_train = int(prepared.split.train_coverage_mask.sum())
    n_cov_test = int(prepared.split.test_coverage_mask.sum())
    total = n_cov_train + n_cov_test
    return n_cov_train / total if total else 0.0
