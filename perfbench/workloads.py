"""Workload definitions, seeded input generation, and input/output digests.

Every workload builds its inputs the same way: ``load_dataset`` +
``build_context(dataset, "LR", ...)`` + ``prepare_run(frs_size=3,
tcf=0.2)``.  The rule pool is always explained from LR, so the model
under test (RF, KNN) cannot reshape its own inputs.  The dataset
sample and rule pool are part of the workload and fixed; the seed draws
``draws`` independent (FRS, split, session seed) input sets from them.
A run times one edit session per input set, so its medians average over
several rule draws instead of hanging on one, and a new seed changes
the rules a user brings, not the data (the data's geometry alone moved
neighbour-query time by a third between samples).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n: int | None  # dataset size; None = the registry default
    model: str  # name in repro.models.MODELS
    selection: str  # FroteConfig.selection
    eta: int
    tau: int
    draws: int  # input sets (one edit session each) per pass


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
# tau and draws size one pass at ~20 s on a 2-core host: many short
# sessions over different rule draws average out how much a draw's
# accepted rows grow the later fits, which few long sessions cannot.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("adult-lr", "adult", 10000, "LR", "random", eta=200, tau=5, draws=15),
        Workload("car-rf", "car", None, "RF", "random", eta=20, tau=5, draws=8),
        Workload("bc-knn-ip", "breast_cancer", None, "KNN", "ip", eta=20, tau=2, draws=30),
    )
}

#: Seed of every workload's dataset sample and rule pool.
CONTEXT_SEED = 0


def tiny(workload: Workload) -> Workload:
    """The self-test's size: every code path of the workload in seconds."""
    return replace(workload, n=400, tau=2, draws=1)


@dataclass
class EditInput:
    """One edit session's inputs: what is handed to ``repro.edit``."""

    train: object  # repro Dataset
    test: object  # repro Dataset
    frs: object  # repro FeedbackRuleSet
    random_state: int


def generate_inputs(workload: Workload, seed: int) -> list[EditInput]:
    """The run's input sets, a pure function of ``(workload, seed)``."""
    from repro.experiments.setup import build_context, prepare_run

    ctx = build_context(workload.dataset, "LR", n=workload.n, random_state=CONTEXT_SEED)
    rng = np.random.default_rng(seed)
    inputs: list[EditInput] = []
    for _ in range(20 * workload.draws):
        run = prepare_run(ctx, frs_size=3, tcf=0.2, rng=rng)
        if run is None:  # no conflict-free FRS in this draw
            continue
        inputs.append(
            EditInput(run.train, run.test, run.frs, int(rng.integers(2**31)))
        )
        if len(inputs) == workload.draws:
            return inputs
    raise RuntimeError(
        f"{workload.name}: seed {seed} gave fewer than {workload.draws} "
        "conflict-free rule draws"
    )


def _hash_dataset(h, dataset) -> None:
    X = dataset.X
    for spec in X.schema:
        h.update(repr((spec.name, spec.kind, spec.categories)).encode())
        h.update(np.ascontiguousarray(X.column(spec.name)).tobytes())
    h.update(repr(tuple(dataset.label_names)).encode())
    h.update(np.ascontiguousarray(dataset.y, dtype=np.int64).tobytes())


def input_fingerprint(inputs: list[EditInput]) -> str:
    """Hash of every train/test table, label vector, FRS text and session
    seed: two runs are comparable only if this matches."""
    h = hashlib.sha256()
    for inp in inputs:
        _hash_dataset(h, inp.train)
        _hash_dataset(h, inp.test)
        for rule in inp.frs:
            h.update(str(rule).encode())
        h.update(str(inp.random_state).encode())
    return h.hexdigest()[:16]


def output_digest(result, inp: EditInput, pred: np.ndarray) -> dict:
    """What a correct edit must reproduce bit for bit: the edited model's
    test predictions ``pred`` (hashed), acceptance counts, and the paper
    metrics on the held-out test set."""
    from repro.core.objective import evaluate_predictions

    ev = evaluate_predictions(pred, inp.test, inp.frs)
    return {
        "pred_sha": hashlib.sha256(pred.tobytes()).hexdigest()[:16],
        "accepted": int(result.accepted_iterations),
        "n_added": int(result.n_added),
        "test_mra": float(ev.mra),
        "test_f1": float(ev.f1_outside),
    }


def invariant_errors(
    result, inp: EditInput, pred: np.ndarray, digest: dict, tau: int
) -> list[str]:
    """Checks that hold for any correct edit, recorded or not."""
    errors = []
    history = result.history
    if len(history) != result.iterations or not 0 < result.iterations <= tau:
        errors.append(f"iterations={result.iterations} history={len(history)} tau={tau}")
    added = sum(rec.n_generated for rec in history if rec.accepted)
    if added != result.n_added or (history and history[-1].n_added_total != added):
        errors.append(f"n_added={result.n_added} but accepted batches hold {added}")
    if result.dataset.n != inp.train.n - result.n_dropped + result.n_added:
        errors.append(f"edited dataset has {result.dataset.n} rows")
    if pred.shape != (inp.test.n,) or not (
        0 <= pred.min() and pred.max() < inp.test.n_classes
    ):
        errors.append("test predictions out of range")
    for key in ("test_mra", "test_f1"):
        if not 0.0 <= digest[key] <= 1.0:
            errors.append(f"{key}={digest[key]} outside [0, 1]")
    return errors
