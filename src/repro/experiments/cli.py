"""Command-line interface: regenerate any paper table or figure.

Usage::

    python -m repro.experiments fig2   --dataset car --model LR
    python -m repro.experiments fig3   --dataset breast_cancer --model LR
    python -m repro.experiments fig9   --dataset adult --model LR
    python -m repro.experiments table1
    python -m repro.experiments table2 --dataset mushroom --model LR
    python -m repro.experiments table3 --dataset car --model LR
    python -m repro.experiments table6 --dataset mushroom
    python -m repro.experiments ablation --dataset car --model LR --parameter k
    python -m repro.experiments bench-mem --quick
    python -m repro.experiments run-spec path/to/spec.json --workers 4 --store runs/
    python -m repro.experiments status  path/to/spec.json --store runs/

``run-spec`` executes a declarative :class:`~repro.experiments.
ExperimentSpec` JSON file: ``--workers N`` fans runs out over processes
(records bit-identical to serial), ``--store DIR`` persists every run by
spec hash so an interrupted grid resumes where it stopped; ``status`` reports a
grid's completion counts against a store without running anything.

``bench-mem`` is the CI memory guard: it runs the out-of-core streaming
workload in a fresh worker process and exits non-zero when the worker's
peak RSS exceeds its ``budget * 1.5 + 48 MiB`` bound.  ``bench-journal``
runs the journaled-serving overhead benchmark: serving with journals
must match serving without bit-for-bit, every journal must replay, and
journal I/O must stay under 5% of serving time — exits non-zero
otherwise; journals are kept under ``--out-dir`` for CI artifact upload.
``--quick`` selects the CI-sized configuration of either guard.  Speed
is measured by the edit-run benchmark, ``perfbench/run.py``.

Common options: ``--runs`` (repetitions), ``--tau`` (FROTE iteration
limit), ``--seed``, ``--save out.json`` (persist raw records).

Introspection: ``--list-strategies`` prints every strategy registered
with the edit engine (user plugins included); ``--list-datasets`` and
``--list-models`` print the dataset registry (per-dataset η defaults
included) and the model registry.  Each exits immediately.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.figures import (
    format_fig2,
    format_fig3,
    format_fig9,
    run_fig2,
    run_fig3,
    run_fig9,
)
from repro.experiments.persistence import save_records
from repro.experiments.report import format_table
from repro.experiments.tables import (
    format_ablation,
    format_table2,
    format_table3,
    format_table6,
    run_ablation,
    run_table2,
    run_table3,
    run_table6,
)

EXPERIMENTS = (
    "fig2", "fig3", "fig9", "table1", "table2", "table3", "table6", "ablation",
    "bench-mem", "bench-journal", "all", "run-spec", "status",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate FROTE paper tables and figures.",
    )
    parser.add_argument("experiment", nargs="?", choices=EXPERIMENTS)
    parser.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="run-spec/status: path to an ExperimentSpec JSON file",
    )
    parser.add_argument(
        "--list-strategies",
        action="store_true",
        help="list every registered engine strategy (selectors, modifiers, "
        "samplers, objectives) and exit",
    )
    parser.add_argument(
        "--list-datasets",
        action="store_true",
        help="list the dataset registry (paper sizes and per-dataset η "
        "defaults) and exit",
    )
    parser.add_argument(
        "--list-models",
        action="store_true",
        help="list the model registry and exit",
    )
    parser.add_argument("--dataset", default="car", help="dataset name (see repro.datasets)")
    parser.add_argument("--model", default="LR", help="LR, RF, or LGBM")
    parser.add_argument("--runs", type=int, default=5, help="repetitions per setting")
    parser.add_argument("--tau", type=int, default=20, help="FROTE iteration limit")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n", type=int, default=None, help="dataset size override")
    parser.add_argument(
        "--parameter",
        default="k",
        choices=("k", "q", "eta", "mod_strategy"),
        help="knob for the ablation sweep",
    )
    parser.add_argument("--save", default=None, help="write raw records to this JSON path")
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run-spec/all: processes to fan runs out over (1 = serial; "
        "records are bit-identical either way)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="run-spec/status/all: RunStore directory (content-addressed "
        "per-run records; enables resume)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="bench-mem/bench-journal: CI-sized configuration",
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        help="bench-journal: the journals are kept under OUT_DIR/journals",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=("smoke", "bench", "paper"),
        help="scale for the 'all' suite",
    )
    return parser


def format_strategies() -> str:
    """Render every engine registry (built-ins and user plugins)."""
    from repro.engine import MODIFIERS, OBJECTIVES, SAMPLERS, SELECTORS
    from repro.experiments.kinds import RUN_KINDS

    lines = ["Registered edit-engine strategies:"]
    for registry in (SELECTORS, MODIFIERS, SAMPLERS, OBJECTIVES, RUN_KINDS):
        names = ", ".join(registry.names()) or "(none)"
        lines.append(f"  {registry.kind + ':':25s}{names}")
    lines.append(
        "\nRegister your own with repro.engine.register_selector & co., "
        "then pass the name via FroteConfig or EditSession.configure()."
    )
    return "\n".join(lines)


def format_datasets() -> str:
    """Render the dataset registry, per-dataset experiment defaults included."""
    from repro.datasets import DATASETS

    rows = []
    for info in DATASETS.values():
        rows.append(
            {
                "dataset": info.name,
                "paper |D|": info.paper_instances,
                "default |D|": info.default_instances,
                "features": info.n_features,
                "labels": info.n_labels,
                "eta": info.eta if info.eta is not None else "-",
            }
        )
    return (
        format_table(rows, title="Registered datasets (eta = paper §5.1 default)")
        + "\n\nRegister your own with repro.datasets.register_dataset(...)."
    )


def format_models() -> str:
    """Render the model registry."""
    from repro.models import MODELS

    rows = []
    for info in MODELS.values():
        rows.append(
            {
                "model": info.name,
                "paper": "yes" if info.paper else "-",
                "standardize": "yes" if info.standardize else "-",
            }
        )
    return (
        format_table(rows, title="Registered models")
        + "\n\nRegister your own with repro.models.register_model(...)."
    )


def bench_mem_cmd(args: argparse.Namespace) -> tuple[list[dict], str]:
    """``bench-mem``: CI guard asserting the out-of-core peak-RSS budget.

    Runs the streaming workload in a fresh worker process and exits
    non-zero when its workload RSS exceeded ``budget * 1.5 + tolerance``
    (the bound the worker computed) — a spill regression.
    """
    from repro.perf.oocbench import run_out_of_core

    record = run_out_of_core(
        budget_mb=24.0 if args.quick else 48.0, seed=args.seed
    )
    lines = [
        f"out-of-core: {record['rows']} rows ({record['dense_mb']:.1f} MiB "
        f"dense) under a {record['budget_mb']:.0f} MiB budget, "
        f"{record['n_spilled_shards']} shards spilled "
        f"({record['spilled_mb']:.1f} MiB)",
        f"  workload RSS {record['workload_rss_mb']:.1f} MiB, bound "
        f"{record['rss_limit_mb']:.1f} MiB (budget * 1.5 + "
        f"{record['tolerance_mb']:.0f} MiB tolerance)",
    ]
    if not record["within_budget"]:
        lines.append(
            f"FAIL: workload RSS {record['workload_rss_mb']:.1f} MiB exceeds "
            f"the {record['rss_limit_mb']:.1f} MiB bound"
        )
        print("\n".join(lines))
        raise SystemExit(1)
    lines.append("OK: peak RSS within the memory budget")
    return [record], "\n".join(lines)


def bench_journal_cmd(args: argparse.Namespace) -> tuple[list[dict], str]:
    """``bench-journal``: CI guard on the cost and fidelity of journaling.

    Runs the serving fleet plain and journaled (parity is asserted
    record-for-record, and every journal must scan clean and replay to
    its session's live history), then exits non-zero when journal I/O
    exceeds the overhead threshold.  Journals land under
    ``--out-dir/journals`` so the CI job can upload them as an artifact.
    """
    from repro.perf.journalbench import run_journal_bench

    journal_dir = Path(args.out_dir) / "journals"
    record = run_journal_bench(
        quick=args.quick, seed=args.seed, journal_dir=str(journal_dir)
    )
    lines = [
        f"journaled serving: {record['n_sessions']} sessions, "
        f"{record['iterations']} iterations, {record['n_journals']} journals "
        f"({record['journal_records']} records) -> {journal_dir}",
        f"  plain     {record['plain_seconds']:.3f}s",
        f"  journaled {record['journaled_seconds']:.3f}s "
        f"(wall delta {record['wall_delta_pct']:+.1f}%, informational)",
        f"  journal I/O {record['journal_io_seconds'] * 1e3:.1f}ms = "
        f"{record['overhead_pct']:.2f}% of serving time "
        f"(threshold {record['threshold_pct']:.1f}%)",
        f"  parity: {'ok' if record['parity'] else 'FAILED'}, "
        f"journal errors: {record['journal_errors']}",
    ]
    text = "\n".join(lines)
    if not record["within_overhead"] or record["journal_errors"]:
        print(text)
        raise SystemExit(1)
    return [record], text


def _load_spec(args: argparse.Namespace):
    from repro.experiments.spec import ExperimentSpec

    if not args.spec:
        raise SystemExit(
            f"{args.experiment} requires a spec path: "
            f"python -m repro.experiments {args.experiment} path/to/spec.json"
        )
    path = Path(args.spec)
    if not path.exists():
        raise SystemExit(f"spec file not found: {path}")
    return ExperimentSpec.load(path)


def run_spec_cmd(args: argparse.Namespace) -> tuple[list[dict], str]:
    """``run-spec``: execute a declarative ExperimentSpec JSON file."""
    from repro.experiments.grid import ExperimentRunner
    from repro.experiments.store import RunStore

    spec = _load_spec(args)
    store = RunStore(args.store) if args.store else None
    runner = ExperimentRunner(store=store, workers=args.workers)
    runner.on_event(
        lambda ev: print(
            f"[{spec.name}] {ev.kind} "
            + (f"{ev.index + 1}/{ev.total} {ev.spec.dataset}/{ev.spec.model}"
               f" |F|={ev.spec.frs_size} tcf={ev.spec.tcf} run={ev.spec.run}"
               if ev.spec is not None else f"({ev.total} runs)"),
            file=sys.stderr,
        )
    )
    result = runner.run(spec)
    lines = [
        f"spec {spec.name!r}: {len(result)} runs "
        f"({result.executed} executed, {result.cached} from store, "
        f"{result.skipped} skipped draws)",
    ]
    if store is not None:
        lines.append(f"records stored in {store.root} (resume with the same command)")
    return result.records, "\n".join(lines)


def status_cmd(args: argparse.Namespace) -> tuple[list[dict], str]:
    """``status``: a grid's completion counts against a store."""
    from repro.experiments.grid import ExperimentRunner
    from repro.experiments.store import RunStore

    spec = _load_spec(args)
    if not args.store:
        raise SystemExit("status requires --store DIR")
    runner = ExperimentRunner(store=RunStore(args.store))
    counts = runner.status(spec)
    text = (
        f"spec {spec.name!r} in {args.store}: "
        f"{counts['ok']}/{counts['total']} completed, "
        f"{counts['skipped']} skipped draws, {counts['missing']} missing"
    )
    return [dict(counts)], text


def run(args: argparse.Namespace) -> tuple[list[dict], str]:
    """Dispatch one experiment; returns (records, rendered text)."""
    common = dict(n_runs=args.runs, tau=args.tau, n=args.n, random_state=args.seed)
    if args.experiment == "bench-mem":
        return bench_mem_cmd(args)
    if args.experiment == "bench-journal":
        return bench_journal_cmd(args)
    if args.experiment == "run-spec":
        return run_spec_cmd(args)
    if args.experiment == "status":
        return status_cmd(args)
    if args.experiment == "all":
        from repro.experiments.paper_suite import run_paper_suite

        reports = run_paper_suite(
            scale=args.scale,
            random_state=args.seed,
            progress=lambda line: print(f"[suite] {line}", file=sys.stderr),
            store=args.store,
            workers=args.workers,
        )
        text = "\n\n".join(f"### {key}\n{report}" for key, report in reports.items())
        records = [{"key": k} for k in reports]
        return records, text
    if args.experiment == "fig2":
        records = run_fig2(args.dataset, args.model, **common)
        return records, format_fig2(records)
    if args.experiment == "fig3":
        records = run_fig3(args.dataset, args.model, **common)
        return records, format_fig3(records)
    if args.experiment == "fig9":
        records = run_fig9(args.dataset, args.model, **common)
        return records, format_fig9(records)
    if args.experiment == "table1":
        from repro.datasets import table1_rows

        records = table1_rows()
        return records, format_table(records, title="Table 1 — dataset properties")
    if args.experiment == "table2":
        records = run_table2(args.dataset, args.model, **common)
        text = "\n\n".join(
            format_table2(records, metric=m)
            for m in ("delta_j", "delta_mra", "delta_f1")
        )
        return records, text
    if args.experiment == "table3":
        records = run_table3(args.dataset, args.model, **common)
        return records, format_table3(records)
    if args.experiment == "table6":
        records = run_table6(
            args.dataset,
            n_runs=args.runs,
            tau=args.tau,
            n=args.n,
            random_state=args.seed,
        )
        return records, format_table6(records)
    if args.experiment == "ablation":
        values = {
            "k": (2, 5, 10),
            "q": (0.1, 0.5, 1.0),
            "eta": (5, 20, 60),
            "mod_strategy": ("none", "relabel", "drop"),
        }[args.parameter]
        records = run_ablation(
            args.dataset,
            args.model,
            parameter=args.parameter,
            values=values,
            n_runs=args.runs,
            tau=args.tau,
            n=args.n,
            random_state=args.seed,
        )
        return records, format_ablation(records)
    raise ValueError(f"unknown experiment {args.experiment!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    listed = False
    if args.list_strategies:
        print(format_strategies())
        listed = True
    if args.list_datasets:
        print(format_datasets())
        listed = True
    if args.list_models:
        print(format_models())
        listed = True
    if listed:
        return 0
    if args.experiment is None:
        parser.error(
            "an experiment name is required (or --list-strategies / "
            "--list-datasets / --list-models)"
        )
    records, text = run(args)
    print(text)
    if args.save:
        path = save_records(
            args.experiment,
            records,
            args.save,
            metadata={
                "dataset": args.dataset,
                "model": args.model,
                "runs": args.runs,
                "tau": args.tau,
                "seed": args.seed,
            },
        )
        print(f"\nrecords written to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
