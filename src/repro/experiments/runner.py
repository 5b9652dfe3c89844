"""Single-run and grid experiment execution.

One *run* = one FRS draw + one tcf split + (initial model, modified-data
model, FROTE-augmented model) evaluated on the held-out test set — the
three box-plot groups of the paper's Figures 2/3 and the Δ columns of its
tables.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields

import numpy as np

from repro.core.config import FroteConfig
from repro.core.objective import Evaluation, evaluate_model
from repro.data.dataset import Dataset
from repro.datasets import DATASETS
from repro.engine.session import EditSession, edit
from repro.engine.state import FroteResult
from repro.experiments.setup import ExperimentContext, PreparedRun, prepare_run
from repro.utils.rng import RandomState, check_random_state


class _PaperEtaView(Mapping):
    """Live, read-only view of the registry's per-dataset η defaults.

    The paper's §5.1 per-iteration generation counts live with the
    datasets themselves (``DatasetInfo.eta``, set at
    :func:`repro.datasets.register_dataset` time), so a dataset
    registered after import shows up here immediately.  Read-only by
    design: to change a default, re-register the dataset with
    ``overwrite=True`` — mutating this mapping would silently diverge
    from what the runner actually uses.
    """

    def __getitem__(self, name: str) -> int:
        info = DATASETS[name]
        if info.eta is None:
            raise KeyError(name)
        return info.eta

    def __iter__(self):
        return (name for name, info in DATASETS.items() if info.eta is not None)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:
        return f"PAPER_ETA({dict(self)})"


#: Backwards-compatible mapping over the registry's η defaults (live).
PAPER_ETA = _PaperEtaView()


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


def run_many(
    ctx: ExperimentContext,
    *,
    frs_size: int,
    tcf: float,
    n_runs: int,
    config: FroteConfig,
    random_state: RandomState = 42,
) -> list[RunResult]:
    """Repeat :func:`execute_run` with fresh FRS draws and splits.

    Draws that admit no conflict-free FRS are skipped (the paper drops
    those settings too).
    """
    rng = check_random_state(random_state)
    out: list[RunResult] = []
    for _ in range(n_runs):
        prepared = prepare_run(ctx, frs_size=frs_size, tcf=tcf, rng=rng)
        if prepared is None:
            continue
        run_cfg = FroteConfig(
            tau=config.tau,
            q=config.q,
            eta=config.eta,
            k=config.k,
            selection=config.selection,
            mod_strategy=config.mod_strategy,
            mra_weight=config.mra_weight,
            accept_equal=config.accept_equal,
            random_state=int(rng.integers(2**31)),
        )
        result, _ = execute_run(ctx, prepared, config=run_cfg)
        out.append(result)
    return out


def default_config(
    dataset_name: str,
    *,
    tau: int = 30,
    q: float = 0.5,
    selection: str = "random",
    mod_strategy: str = "relabel",
    eta_scale: float = 1.0,
    random_state: RandomState = 42,
) -> FroteConfig:
    """Paper-style configuration scaled for bench-speed iteration limits.

    The paper runs τ = 200; benchmarks default to τ = 30 with the paper's
    per-dataset η (optionally scaled), which preserves the oversampling
    quota dynamics at a fraction of the retraining cost.
    """
    eta = DATASETS[dataset_name].eta if dataset_name in DATASETS else None
    if eta is not None:
        eta = max(1, int(eta * eta_scale))
    return FroteConfig(
        tau=tau,
        q=q,
        eta=eta,
        selection=selection,
        mod_strategy=mod_strategy,
        random_state=random_state,
    )
