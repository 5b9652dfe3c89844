"""Out-of-core streaming workload with peak-RSS accounting.

The beyond-RAM guard behind ``python -m repro.experiments bench-mem``.
It streams batches of a wide synthetic dataset through the edit loop's
per-batch maintenance work — sharded
:class:`~repro.data.builder.DatasetBuilder` appends (including rejected
stages), dataset-version moves, incremental FRS assignment merges,
GaussianNB partial refits, slice/gather snapshot reads, and, halfway, one
schema migration of the sharded active dataset — until the
active dataset's dense size reaches a configured multiple (default 4×)
of the ``max_resident_mb`` budget, then reports the process peak RSS
against the ``budget * 1.5 + tolerance`` bound derived below.

Because ``ru_maxrss`` is a process-lifetime high-water mark, the
measurement is only meaningful in a process that has not already held
large arrays; :func:`run_out_of_core` therefore runs this module as a
**subprocess** (``python -m repro.perf.oocbench``) and parses the JSON
it prints.  The guard bound is::

    workload_rss_mb = peak_rss_mb - baseline_rss_mb
    rss_limit_mb    = budget_mb * 1.5 + TOLERANCE_MB   # LRU + resident floor
    within_budget   = workload_rss_mb <= rss_limit_mb

The 1.5 factor covers the documented residents outside the sealed-shard
LRU budget: labels and the FRS assignment cache (one machine word per
row each), the writable tail shards, and the in-flight batch.  A dense
run of the same workload holds the full dataset on heap and blows the
bound by construction — which is exactly the regression the CI assertion
exists to catch.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

from repro.data.table import Table, make_schema

__all__ = ["TOLERANCE_MB", "run_out_of_core", "run_streaming_workload", "main"]

_MB = 1024 * 1024

#: Fixed slack (MiB) added to ``budget * 1.5`` to form the RSS bound:
#: interpreter noise, allocator fragmentation, transiently mapped pages.
TOLERANCE_MB = 48.0

#: Wide mixed schema: 16 numeric + 8 categorical columns = 192 bytes/row,
#: so the per-row resident floor (labels + assignment cache, 16 bytes) is
#: a small fraction of the dense row and the budget bound is meaningful.
N_NUMERIC = 16
N_CATEGORICAL = 8
BYTES_PER_ROW = (N_NUMERIC + N_CATEGORICAL) * 8
CATEGORIES = ("a", "b", "c", "d")


def _current_rss_mb() -> float:
    """Current resident set size in MiB."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / _MB
    except (OSError, ValueError):  # pragma: no cover - non-linux fallback
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak / _MB if sys.platform == "darwin" else peak / 1024.0


class _PeakTracker:
    """Peak-RSS tracking that survives the ``ru_maxrss`` inheritance trap.

    On Linux ``ru_maxrss`` (and ``VmHWM``) are inherited across
    fork/exec, so a worker spawned by a process that already held large
    arrays starts with the parent's high-water mark and measures
    nothing.  Construction therefore resets the kernel's ``VmHWM`` via
    ``/proc/self/clear_refs`` and reads it back from
    ``/proc/self/status``; where that interface is unavailable the
    tracker falls back to the maximum of explicit :meth:`sample` calls
    (the workload samples after every mutation/read op, which catches
    the op-boundary spikes that matter here).
    """

    def __init__(self) -> None:
        self.hwm_reset = False
        try:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5\n")
            self.hwm_reset = self._vm_hwm_mb() is not None
        except OSError:  # pragma: no cover - non-linux fallback
            pass
        self.baseline_mb = _current_rss_mb()
        self._sampled_mb = self.baseline_mb

    @staticmethod
    def _vm_hwm_mb() -> float | None:
        try:
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except (OSError, ValueError):  # pragma: no cover
            pass
        return None

    def sample(self) -> None:
        self._sampled_mb = max(self._sampled_mb, _current_rss_mb())

    def peak_mb(self) -> float:
        self.sample()
        if self.hwm_reset:
            hwm = self._vm_hwm_mb()
            if hwm is not None:
                return max(hwm, self._sampled_mb)
        return self._sampled_mb


def _schema():
    return make_schema(
        numeric=[f"n{i:02d}" for i in range(N_NUMERIC)],
        categorical={f"c{i}": CATEGORIES for i in range(N_CATEGORICAL)},
    )


def _batch(schema, n: int, rng: np.random.Generator) -> tuple[Table, np.ndarray]:
    """One synthetic batch (features + labels) over the wide schema."""
    cols: dict[str, np.ndarray] = {}
    for i in range(N_NUMERIC):
        cols[f"n{i:02d}"] = rng.uniform(size=n)
    for i in range(N_CATEGORICAL):
        cols[f"c{i}"] = rng.integers(0, len(CATEGORIES), size=n)
    y = (cols["n00"] + cols["n01"] > 1.0).astype(np.int64)
    noise = rng.uniform(size=n) < 0.05
    y[noise] = 1 - y[noise]
    return Table(schema, cols, copy=False), y


def run_streaming_workload(
    *,
    budget_mb: float,
    dense_factor: float = 4.0,
    batch_rows: int = 16384,
    shard_rows: int | None = 16384,
    seed: int = 42,
) -> dict:
    """Stream the workload and return the measurement record (a JSON dict).

    Parameters
    ----------
    budget_mb:
        ``FroteConfig(max_resident_mb=...)`` for the run.
    dense_factor:
        Target dense size of the active dataset as a multiple of the
        budget (the ISSUE scenario: ~4×, i.e. a 25% resident budget).
    batch_rows:
        Rows per streamed batch.
    shard_rows:
        Shard width handed to the config (``None`` = library default).
    seed:
        RNG seed for batch generation.
    """
    from repro.core.config import FroteConfig
    from repro.data.dataset import Dataset
    from repro.data.evolution import SchemaDelta
    from repro.engine.migration import apply_schema_delta
    from repro.engine.state import EditState
    from repro.models import GaussianNB, make_algorithm
    from repro.rules.parser import parse_rule
    from repro.rules.ruleset import FeedbackRuleSet

    schema = _schema()
    label_names = ("neg", "pos")
    target_rows = int(budget_mb * dense_factor * _MB / BYTES_PER_ROW)
    steps = max(1, (target_rows - batch_rows) // batch_rows)
    rng = np.random.default_rng(seed)

    frs = FeedbackRuleSet(
        tuple(
            parse_rule(text, schema, label_names)
            for text in (
                "n00 < 0.25 => pos",
                "n01 > 0.75 AND c0 = 'a' => neg",
            )
        )
    )
    algorithm = make_algorithm(GaussianNB, standardize=False)
    config = FroteConfig(
        incremental=True,
        mod_strategy="none",
        max_resident_mb=budget_mb,
        shard_rows=shard_rows,
    )

    def drive(
        base: Dataset,
        steps: int,
        rng: np.random.Generator,
        tracker: _PeakTracker | None = None,
    ):
        """The maintenance loop: append, partial refit, merge, read back."""
        state = EditState(
            input_dataset=base,
            frs=frs,
            algorithm=algorithm,
            config=config,
            rng=rng,
            active=base,
        )
        state.record_rebuild()
        builder = state.ensure_builder()
        state.model = algorithm(state.active)
        state.active_assignment()
        window = (shard_rows or 16384) * 2
        n_batch = base.n
        # Halfway, a schema migration renames a column the rules do not
        # read: the engine's migration path over the sharded table, after
        # which every batch arrives in the migrated schema.
        migration = None
        for step in range(steps):
            if step == steps // 2:
                migration = SchemaDelta.rename_column("c7", "c7_renamed")
                builder = None  # the state holds the pre-migration builder
                apply_schema_delta(state, migration)
                builder = state.ensure_builder()
                if tracker is not None:
                    tracker.sample()
                builder.advise_cold()
            table, y = _batch(schema, n_batch, rng)
            if migration is not None:
                table = migration.apply_to_table(table)
            if step % 4 == 3:
                # Rejected candidate: staged rows are simply overwritten
                # by the next stage — the edit loop's reject path.
                builder.stage(table, y)
            start = builder.n_rows
            state.active = builder.append(table, y)
            # Partial refit + assignment merge touch only the appended
            # slice; the full prediction/assignment passes run once as the
            # epilogue below (they are shard-chunked, so per-step repeats
            # would only multiply identical O(block) work).
            delta = state.active.row_slice(start, state.active.n)
            state.model.partial_update(delta)
            state.record_append()
            assign = state.active_assignment()
            # Snapshot reads: a trailing window slice (recent shards)
            # and a small gather across the full range (cold shards).
            lo = max(0, state.active.n - window)
            state.active.X.row_slice(lo, state.active.n)
            probe = rng.integers(0, state.active.n, size=64)
            state.active.X.take(probe)
            if tracker is not None:
                tracker.sample()
            # Keep transiently mapped cold pages out of the RSS peak.
            builder.advise_cold()
            assert assign.shape[0] == state.active.n
        return state, builder

    # Warm-up at toy scale so import weight, allocator arenas, and lazily
    # initialized NumPy machinery land in the *baseline*, leaving the
    # measured delta to the streaming workload itself.
    warm_table, warm_y = _batch(schema, 256, np.random.default_rng(seed + 1))
    drive(Dataset(warm_table, warm_y, label_names), steps=3,
          rng=np.random.default_rng(seed + 1))

    base_table, base_y = _batch(schema, batch_rows, rng)
    base = Dataset(base_table, base_y, label_names)
    tracker = _PeakTracker()
    baseline_rss_mb = tracker.baseline_mb
    t0 = time.perf_counter()
    state, builder = drive(base, steps, rng, tracker)
    seconds = time.perf_counter() - t0
    # Full-pass epilogue over the final sharded snapshot: whole-table
    # prediction (chunked encoder transform + per-block predict_proba) and
    # a from-scratch FRS assignment.  These passes used to densify via the
    # ``column()`` escape hatch; they now stream shard-aligned row blocks,
    # so they run *inside* the measured RSS bound.
    t1 = time.perf_counter()
    preds = state.model.predict(state.active.X)
    tracker.sample()
    full_assign = state.frs.assign(state.active.X)
    tracker.sample()
    epilogue_seconds = time.perf_counter() - t1
    assert preds.shape[0] == state.active.n
    assert full_assign.shape[0] == state.active.n
    builder.advise_cold()
    peak_rss_mb = tracker.peak_mb()
    workload_rss_mb = max(0.0, peak_rss_mb - baseline_rss_mb)
    rss_limit_mb = budget_mb * 1.5 + TOLERANCE_MB
    stats = builder.storage_stats()
    rows = state.active.n
    return {
        "scenario": "out_of_core",
        "rows": int(rows),
        "steps": int(steps),
        "batch_rows": int(batch_rows),
        "shard_rows": int(shard_rows or 0),
        "dense_mb": round(rows * BYTES_PER_ROW / _MB, 2),
        "budget_mb": float(budget_mb),
        "tolerance_mb": TOLERANCE_MB,
        "baseline_rss_mb": round(baseline_rss_mb, 2),
        "peak_rss_mb": round(peak_rss_mb, 2),
        "workload_rss_mb": round(workload_rss_mb, 2),
        "rss_limit_mb": round(rss_limit_mb, 2),
        "within_budget": bool(workload_rss_mb <= rss_limit_mb),
        "n_shards": int(stats["n_shards"]),
        "n_spilled_shards": int(stats["n_spilled"]),
        "spilled_mb": round(stats["spilled_bytes"] / _MB, 2),
        "resident_mb": round(stats["heap_bytes"] / _MB, 2),
        "seconds": seconds,
        "epilogue_seconds": round(epilogue_seconds, 4),
    }


def run_out_of_core(*, budget_mb: float, seed: int = 42) -> dict:
    """Run the workload in a **fresh subprocess** and return its record.

    Peak RSS is a process-lifetime high-water mark, so measuring it in a
    process that has already held large arrays would be meaningless.
    The worker streams batches through the sharded builder until the
    active dataset's dense size is ~4× the ``max_resident_mb`` budget,
    exercising appends (accept and reject paths), partial model refits,
    incremental FRS-assignment merges, and snapshot slice/gather reads
    on spilled data.  ``record["within_budget"]`` is the guard's verdict.
    """
    cmd = [
        sys.executable, "-m", "repro.perf.oocbench",
        "--budget-mb", str(budget_mb),
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
    return json.loads(proc.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.oocbench",
        description="Out-of-core streaming workload; prints a JSON record "
        "with peak-RSS accounting (run in a fresh process).",
    )
    parser.add_argument("--budget-mb", type=float, default=24.0)
    parser.add_argument("--dense-factor", type=float, default=4.0)
    parser.add_argument("--batch-rows", type=int, default=16384)
    parser.add_argument("--shard-rows", type=int, default=16384)
    parser.add_argument("--seed", type=int, default=42)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    record = run_streaming_workload(
        budget_mb=args.budget_mb,
        dense_factor=args.dense_factor,
        batch_rows=args.batch_rows,
        shard_rows=args.shard_rows,
        seed=args.seed,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
