"""End-to-end wall-clock benchmarks of full FROTE edit runs.

Unlike :mod:`repro.perf.hotpaths` (seed-vs-current kernels), these runs
time the production pipeline as a user drives it — dataset in,
``repro.edit(...)`` session out — so the numbers capture everything the
edit loop does per iteration: preselection, selection, generation,
retraining, and acceptance scoring.  Results land in
``BENCH_end2end.json``; tracked over PRs they are the project's
performance trajectory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import repro
from repro.data.dataset import Dataset
from repro.perf.harness import End2EndRecord
from repro.perf.hotpaths import synthetic_mixed_table

#: Environment override for the out-of-core scenario's fixed RSS slack
#: (MiB added to ``budget * 1.5`` to form the assertion bound), for
#: unusually noisy runners — the memory analogue of
#: ``BENCH_REGRESSION_THRESHOLD``.
RSS_TOLERANCE_ENV_VAR = "BENCH_RSS_TOLERANCE_MB"

#: Every end-to-end scenario name, in emission order — the vocabulary for
#: ``run_end2end_benchmarks(only=...)`` and ``repro-bench --only``.
END2END_NAMES = (
    "session_edit",
    "paper_pipeline_edit",
    "incremental_vs_rebuild",
    "out_of_core",
    "serving",
)


def _synthetic_dataset(n: int, seed: int) -> Dataset:
    """Binary dataset over the synthetic mixed table with planted structure."""
    table = synthetic_mixed_table(n, seed)
    age = table.column("age")
    income = table.column("income")
    rng = np.random.default_rng(seed + 1)
    y = ((age < 40) & (income > 100)).astype(np.int64)
    noise = rng.uniform(size=table.n_rows) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(table, y, ("deny", "approve"))


def _run_synthetic(*, n: int, tau: int, seed: int) -> End2EndRecord:
    """Time one session-API edit on the synthetic mixed dataset."""
    dataset = _synthetic_dataset(n, seed)
    t0 = time.perf_counter()
    result = (
        repro.edit(dataset)
        .with_rules(
            "age < 35 => approve",
            "income < 40 AND marital = 'single' => deny",
        )
        .with_algorithm("LR")
        .configure(tau=tau, q=0.5, random_state=seed)
        .run()
    )
    seconds = time.perf_counter() - t0
    return End2EndRecord(
        name="session_edit",
        dataset="synthetic",
        n_rows=dataset.n,
        tau=tau,
        seconds=seconds,
        iterations=result.iterations,
        accepted_iterations=result.accepted_iterations,
        n_added=result.n_added,
        seconds_per_iteration=seconds / max(result.iterations, 1),
        extra={"selection": "random", "model": "LR"},
    )


def _run_paper_pipeline(
    *, dataset_name: str, n: int, tau: int, seed: int
) -> End2EndRecord:
    """Time the paper's full protocol: context build, FRS draw, FROTE run.

    This exercises the same machinery as the table/figure experiment
    drivers (rule learning, feedback-pool perturbation, conflict-free FRS
    draw, coverage-aware split) before timing the edit itself, so the
    record reflects a realistic experiment workload.
    """
    from repro.experiments.setup import build_context, prepare_run

    ctx = build_context(dataset_name, "LR", n=n, random_state=seed)
    rng = np.random.default_rng(seed)
    run = prepare_run(ctx, frs_size=2, tcf=0.7, rng=rng)
    if run is None:  # pragma: no cover - pool draw can fail for tiny n
        raise RuntimeError(f"no conflict-free FRS drawable for {dataset_name}")
    t0 = time.perf_counter()
    result = (
        repro.edit(run.train)
        .with_rules(run.frs)
        .with_algorithm(ctx.algorithm)
        .configure(tau=tau, q=0.5, selection="random", random_state=seed)
        .run()
    )
    seconds = time.perf_counter() - t0
    return End2EndRecord(
        name="paper_pipeline_edit",
        dataset=dataset_name,
        n_rows=run.train.n,
        tau=tau,
        seconds=seconds,
        iterations=result.iterations,
        accepted_iterations=result.accepted_iterations,
        n_added=result.n_added,
        seconds_per_iteration=seconds / max(result.iterations, 1),
        extra={"selection": "random", "model": "LR", "frs_size": 2},
    )


def _run_incremental_vs_rebuild(
    *, n: int, batch_size: int, steps: int, seed: int
) -> End2EndRecord:
    """Matched dataset-maintenance workloads: delta path vs rebuild path.

    Both sides apply the same ``steps`` accepted batches of
    ``batch_size`` synthetic rows to a base dataset of ``n`` rows, and
    after every batch hold an up-to-date (dataset, trained KNN model,
    FRS row assignment) triple — the per-iteration state maintenance of
    the edit loop.  The *rebuild* side pays full-dataset cost each time
    (``Dataset.concat``, from-scratch ``fit``, full ``frs.assign``); the
    *incremental* side drives the delta APIs end to end
    (:class:`~repro.data.builder.DatasetBuilder` append, ``BruteKNN``
    index append via ``partial_update``, and the
    :class:`~repro.engine.state.EditState` delta journal merging the
    cached assignment) at O(batch) per step.  The model's prediction
    pass on the grown dataset is excluded: it costs the same in both
    modes, so including it would only dilute the number the scenario
    exists to track.  ``extra["speedup"]`` is the headline
    rebuild/incremental ratio; parity of the two paths' *outputs* is
    pinned by the test suite, not re-checked here.
    """
    from repro.core.config import FroteConfig
    from repro.data.builder import DatasetBuilder
    from repro.engine.state import EditState
    from repro.models import KNeighborsClassifier, make_algorithm
    from repro.rules.parser import parse_rule
    from repro.rules.ruleset import FeedbackRuleSet

    base = _synthetic_dataset(n, seed)
    pool = _synthetic_dataset(batch_size * steps, seed + 1)
    deltas = [
        pool.row_slice(i * batch_size, (i + 1) * batch_size) for i in range(steps)
    ]
    frs = FeedbackRuleSet(
        tuple(
            parse_rule(text, base.X.schema, base.label_names)
            for text in (
                "age < 35 => approve",
                "income < 40 AND marital = 'single' => deny",
            )
        )
    )
    algorithm = make_algorithm(lambda: KNeighborsClassifier(k=5), standardize=False)

    # Rebuild path: full-dataset cost per batch.
    t0 = time.perf_counter()
    active = base
    model = algorithm(active)
    frs.assign(active.X)
    for delta in deltas:
        active = Dataset.concat([active, delta])
        model = algorithm(active)
        frs.assign(active.X)
    rebuild_seconds = time.perf_counter() - t0

    # Incremental path: the same end state via the delta APIs.
    t0 = time.perf_counter()
    state = EditState(
        input_dataset=base,
        frs=frs,
        algorithm=algorithm,
        config=FroteConfig(incremental=True, mod_strategy="none"),
        rng=np.random.default_rng(seed),
    )
    state.record_rebuild("bench-setup")
    state.active_builder = DatasetBuilder.from_dataset(base)
    state.active = state.active_builder.snapshot()
    state.model = algorithm(state.active)
    state.active_assignment()
    for delta in deltas:
        state.active = state.active_builder.append(delta.X, delta.y)
        state.model.partial_update(delta)
        state.record_append(delta.n, "bench-batch")
        state.active_assignment()
    incremental_seconds = time.perf_counter() - t0

    return End2EndRecord(
        name="incremental_vs_rebuild",
        dataset="synthetic",
        n_rows=base.n + batch_size * steps,
        tau=steps,
        seconds=incremental_seconds,
        iterations=steps,
        accepted_iterations=steps,
        n_added=batch_size * steps,
        seconds_per_iteration=incremental_seconds / max(steps, 1),
        extra={
            "rebuild_seconds": rebuild_seconds,
            "speedup": rebuild_seconds / max(incremental_seconds, 1e-12),
            "batch_size": batch_size,
            "base_rows": base.n,
            "model": "KNN(brute)",
            "work": "per accepted batch: extend dataset + refit model + FRS assignment",
        },
    )


def _run_out_of_core(
    *, budget_mb: float, batch_rows: int, shard_rows: int, seed: int
) -> End2EndRecord:
    """Beyond-RAM streaming workload with peak-RSS accounting.

    Runs :mod:`repro.perf.oocbench` in a **fresh subprocess**: peak RSS
    is a process-lifetime high-water mark, so measuring it in the bench
    process (which has already held the other scenarios' arrays) would
    be meaningless.  The worker streams batches through the sharded
    builder until the active dataset's dense size is ~4× the
    ``max_resident_mb`` budget, exercising appends (accept and reject
    paths), partial model refits, incremental FRS-assignment merges,
    and snapshot slice/gather reads on spilled data.

    ``extra["within_budget"]`` is the CI memory guard's verdict:
    workload RSS (peak minus the worker's post-import baseline) must
    stay under ``budget * 1.5`` plus a fixed tolerance
    (:data:`RSS_TOLERANCE_ENV_VAR` overrides the tolerance).  A
    regression that silently re-densifies the storage holds the full
    dataset on heap and fails the bound by construction.
    """
    tolerance_mb = float(os.environ.get(RSS_TOLERANCE_ENV_VAR, 48.0))
    cmd = [
        sys.executable, "-m", "repro.perf.oocbench",
        "--budget-mb", str(budget_mb),
        "--batch-rows", str(batch_rows),
        "--shard-rows", str(shard_rows),
        "--tolerance-mb", str(tolerance_mb),
        "--seed", str(seed),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=1800
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"oocbench worker failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    worker = json.loads(proc.stdout)
    return End2EndRecord(
        name="out_of_core",
        dataset="synthetic",
        n_rows=worker["rows"],
        tau=worker["steps"],
        seconds=worker["seconds"],
        iterations=worker["steps"],
        accepted_iterations=worker["steps"],
        n_added=worker["rows"] - batch_rows,
        seconds_per_iteration=worker["seconds"] / max(worker["steps"], 1),
        extra={
            key: worker[key]
            for key in (
                "dense_mb", "budget_mb", "tolerance_mb", "baseline_rss_mb",
                "peak_rss_mb", "workload_rss_mb", "rss_limit_mb",
                "within_budget", "n_shards", "n_spilled_shards",
                "spilled_mb", "resident_mb", "batch_rows", "shard_rows",
                "epilogue_seconds",
            )
        },
    )


def run_end2end_benchmarks(
    *, quick: bool = False, seed: int = 42, only: list[str] | None = None
) -> list[End2EndRecord]:
    """Run the end-to-end benchmarks and return the records.

    Parameters
    ----------
    quick : bool, default False
        Smaller datasets and fewer loop iterations — the CI per-PR
        configuration (a few seconds total).
    seed : int, default 42
        Seed for dataset generation, FRS draws, and the edit loops.
    only : list of str, optional
        Scenario names to run (default: all).  Unknown names raise
        ``ValueError`` so a typo in CI fails loudly instead of silently
        benchmarking nothing.
    """
    from repro.perf.servebench import run_serving_bench

    if quick:
        n_syn, n_real, tau = 1200, 400, 6
        n_ivr, batch_ivr, steps_ivr = 6000, 60, 6
        ooc_budget, ooc_batch = 24.0, 16384
    else:
        n_syn, n_real, tau = 5000, 1200, 20
        n_ivr, batch_ivr, steps_ivr = 30000, 150, 10
        ooc_budget, ooc_batch = 48.0, 16384
    scenarios = {
        "session_edit": lambda: _run_synthetic(n=n_syn, tau=tau, seed=seed),
        "paper_pipeline_edit": lambda: _run_paper_pipeline(
            dataset_name="car", n=n_real, tau=tau, seed=seed
        ),
        "incremental_vs_rebuild": lambda: _run_incremental_vs_rebuild(
            n=n_ivr, batch_size=batch_ivr, steps=steps_ivr, seed=seed
        ),
        "out_of_core": lambda: _run_out_of_core(
            budget_mb=ooc_budget, batch_rows=ooc_batch, shard_rows=16384,
            seed=seed,
        ),
        "serving": lambda: run_serving_bench(quick=quick, seed=seed),
    }
    if only is not None:
        unknown = [name for name in only if name not in scenarios]
        if unknown:
            raise ValueError(
                f"unknown end2end scenario(s) {unknown}; "
                f"known: {sorted(scenarios)}"
            )
        selected = [name for name in scenarios if name in set(only)]
    else:
        selected = list(scenarios)
    return [scenarios[name]() for name in selected]
