"""``repro-serve``: demo entrypoint for the multi-tenant edit service.

Submits several concurrent edit sessions (mixed priorities) over
synthetic datasets, streams one session's progress events, optionally
cancels another mid-run, and prints the service's throughput and
latency counters — a one-command tour of :mod:`repro.serve`::

    repro-serve --sessions 6 --policy weighted-priority --cancel tenant-2

The demo's synthetic tenants (:func:`_session_spec`) also drive the
journal-overhead guard, :mod:`repro.perf.journalbench`.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

import numpy as np

import repro
from repro.data.dataset import Dataset
from repro.data.table import Table, make_schema


def synthetic_mixed_table(n: int, seed: int) -> Table:
    """A mixed-type table: two numeric and two categorical columns."""
    schema = make_schema(
        numeric=["age", "income"],
        categorical={
            "marital": ("single", "married", "divorced"),
            "color": ("red", "green", "blue"),
        },
    )
    rng = np.random.default_rng(seed)
    return Table(
        schema,
        {
            "age": rng.uniform(18, 80, n),
            "income": rng.uniform(10, 200, n),
            "marital": rng.integers(0, 3, n),
            "color": rng.integers(0, 3, n),
        },
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


def _session_spec(n: int, tau: int, seed: int):
    """One tenant's edit session over its own synthetic dataset."""
    return (
        repro.edit(_synthetic_dataset(n, seed))
        .with_rules(
            "age < 35 => approve",
            "income < 40 AND marital = 'single' => deny",
        )
        .with_algorithm("LR")
        .configure(tau=tau, q=0.5, random_state=seed)
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve several concurrent FROTE edit sessions in-process.",
    )
    parser.add_argument(
        "--sessions", type=int, default=4, help="concurrent sessions (default 4)"
    )
    parser.add_argument(
        "--rows", type=int, default=400, help="rows per session dataset"
    )
    parser.add_argument(
        "--tau", type=int, default=5, help="augmentation quota per session"
    )
    parser.add_argument(
        "--budget-mb",
        type=float,
        default=128.0,
        help="service-wide resident budget (MiB), carved per session",
    )
    parser.add_argument(
        "--policy",
        default="weighted-priority",
        help="scheduling policy (round-robin, weighted-priority, ...)",
    )
    parser.add_argument(
        "--cancel",
        default=None,
        metavar="NAME",
        help="cancel this session after its first accepted batch",
    )
    parser.add_argument("--seed", type=int, default=42, help="base seed")
    return parser


async def _demo(args: argparse.Namespace) -> int:
    from repro.serve import EditService, SessionCancelled

    async with EditService(
        policy=args.policy, memory_budget_mb=args.budget_mb
    ) as service:
        handles = [
            service.submit(
                _session_spec(args.rows, args.tau, args.seed + i),
                name=f"tenant-{i}",
                priority=1.0 + (i % 3),
            )
            for i in range(args.sessions)
        ]
        print(
            f"submitted {len(handles)} sessions "
            f"(policy={args.policy}, pool={args.budget_mb:.0f} MiB)"
        )

        async def watch(handle):
            async for event in handle.events():
                print(
                    f"[{handle.name}] {event.kind:<12} "
                    f"iter={event.iteration:<3d} n_added={event.n_added}"
                )
                if args.cancel == handle.name and event.kind in (
                    "accepted",
                    "rejected",
                    "empty-batch",
                ):
                    handle.cancel(reason="demo cancel")

        watchers = [asyncio.ensure_future(watch(h)) for h in handles]
        outcomes = await asyncio.gather(
            *(h.run_to_completion() for h in handles), return_exceptions=True
        )
        await asyncio.gather(*watchers)

        print()
        for handle, outcome in zip(handles, outcomes):
            if isinstance(outcome, SessionCancelled):
                print(f"{handle.name}: cancelled ({outcome.reason})")
            elif isinstance(outcome, BaseException):
                print(f"{handle.name}: failed ({outcome!r})")
            else:
                print(
                    f"{handle.name}: done — {outcome.n_added} rows added "
                    f"in {outcome.iterations} iterations"
                )
        stats = service.stats()
        print(
            f"\nservice: {stats['n_completed']} done / "
            f"{stats['n_cancelled']} cancelled / {stats['n_failed']} failed; "
            f"step p50={stats['p50_step_ms']:.1f} ms "
            f"p99={stats['p99_step_ms']:.1f} ms; "
            f"peak pool use {stats.get('peak_reserved_mb', 0.0):.0f} MiB "
            f"of {stats.get('pool_mb', 0.0):.0f}"
        )
        return 0 if stats["n_failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    """Run the demo; console entry point for ``repro-serve``."""
    args = build_parser().parse_args(argv)
    return asyncio.run(_demo(args))


if __name__ == "__main__":
    sys.exit(main())
