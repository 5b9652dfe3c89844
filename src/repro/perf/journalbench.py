"""Journal-overhead benchmark: what durability costs the serving path.

Runs the serving fleet twice — without journals, then with
``EditService(journal_dir=...)`` (per-session fsync-per-iteration
journals plus the flushed service telemetry journal) — and reports what
journaling costs.  Three guards ride along:

* the journaled fleet's results are bit-identical to the plain one
  (journaling is observation, never perturbation);
* every written journal scans clean and each session journal replays to
  its session's live history;
* journal I/O (write + flush + fsync wall time, accumulated inside
  :class:`~repro.journal.writer.JournalWriter`) stays under
  :data:`OVERHEAD_PCT` percent (5%) of serving time.

The gate is the *measured I/O time*, not the wall-clock delta between
the two modes: at bench scale the model-fit variance between two fleet
runs (±10% on a shared CI box) dwarfs the few milliseconds of fsync per
iteration, so a delta-based gate would be hopelessly flaky.  The
wall-clock delta is still reported (``wall_delta_pct``) as context.
Both modes run ``repeats`` times and the fastest wall time of each is
kept; the I/O ratio is taken from the journaled run with the *highest*
ratio, so the gate sees the worst observed fsync behaviour, and the I/O
seconds reported next to it are that run's.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

#: The gate: percent of serving time spent in journal write/flush/fsync calls.
OVERHEAD_PCT = 5.0


async def _serve_fleet(
    *, sizes: tuple[int, ...], tau: int, seed: int, journal_dir: str | None
) -> dict:
    """Submit one session per dataset size, drive all to completion.

    Mixed priorities (1, 2, 3 cycled) under a 16 MiB-per-session pool;
    session *i* uses ``seed + i``.
    """
    from repro.serve import EditService
    from repro.serve.cli import _session_spec

    service = EditService(
        policy="weighted-priority",
        memory_budget_mb=16.0 * len(sizes),
        default_session_mb=16.0,
        journal_dir=journal_dir,
    )
    handles = [
        service.submit(
            _session_spec(size, tau, seed + i),
            name=f"tenant-{i}",
            priority=1.0 + (i % 3),
        )
        for i, size in enumerate(sizes)
    ]
    results = await asyncio.gather(*(h.run_to_completion() for h in handles))
    await service.close()  # settles nothing (all done); closes the journal
    return {
        "results": results,
        "journal_errors": service.journal_errors,
        "journal_io_seconds": service.journal_io_seconds,
    }


def _fleet_seconds(
    *, sizes: tuple[int, ...], tau: int, seed: int, journal_dir: str | None
) -> tuple[float, dict]:
    t0 = time.perf_counter()
    stats = asyncio.run(
        _serve_fleet(sizes=sizes, tau=tau, seed=seed, journal_dir=journal_dir)
    )
    return time.perf_counter() - t0, stats


def _check_journals(journal_dir: Path, results: list) -> dict:
    """Scan every journal; assert validity and per-session replay parity."""
    from repro.journal import JournalReader, SessionReplay
    from repro.journal.status import discover_journals

    journals = discover_journals(journal_dir)
    records = 0
    sessions = 0
    for journal in journals:
        scan = JournalReader(journal).scan()
        if scan.truncation is not None:
            raise AssertionError(
                f"journal {journal} is truncated: {scan.truncation.reason} "
                f"({scan.truncation.detail})"
            )
        records += len(scan.records)
        if journal.name.startswith("tenant-"):
            index = int(journal.name.removeprefix("tenant-"))
            replay = SessionReplay.load(journal)
            if replay.history() != results[index].history:
                raise AssertionError(
                    f"journal {journal} replays a different history than "
                    "its live session"
                )
            sessions += 1
    return {
        "n_journals": len(journals),
        "n_session_journals": sessions,
        "journal_records": records,
    }


def run_journal_bench(
    *,
    quick: bool = False,
    seed: int = 42,
    journal_dir: str | None = None,
    repeats: int = 2,
) -> dict:
    """Benchmark journaled vs plain serving; returns the record.

    Parameters
    ----------
    quick : bool, default False
        CI scale (4 sessions); full runs 6 larger ones.
    seed : int, default 42
        Base seed; both modes use identical session specs.
    journal_dir : str, optional
        Keep the journals here (the CI job uploads them as an
        artifact).  Default: a temporary directory, discarded.
    repeats : int, default 2
        Repetitions per mode; fastest wall time of each is reported,
        worst observed I/O ratio is gated.

    Returns
    -------
    dict
        Fleet totals (``n_sessions``, ``iterations``, ...),
        ``plain_seconds`` / ``journaled_seconds`` / ``wall_delta_pct``
        (context), ``journal_io_seconds`` and ``overhead_pct`` (the gated
        repetition's I/O time and its share of serving time), the
        ``threshold_pct`` gate and its ``within_overhead`` verdict, and
        journal validity counts.
    """
    # Iterations must be expensive enough to amortize the ~ms-scale fsync
    # at each durability boundary — tiny fleets would measure the disk,
    # not the serving path (realistic edit iterations are fit-dominated).
    # One small tenant rides along so the fleet also journals accepted
    # batches (acceptance is rare on the large synthetic datasets).
    if quick:
        sizes, tau = (1000, 12000, 12000, 12000), 3
    else:
        sizes, tau = (1000, 16000, 16000, 16000, 16000, 16000), 4
    repeats = max(1, repeats)

    owned = journal_dir is None
    tmp = tempfile.TemporaryDirectory(prefix="journalbench-") if owned else None
    root = Path(tmp.name if owned else journal_dir)

    t0 = time.perf_counter()
    plain_s = []
    journaled_s = []
    io = []  # (I/O share of serving time, I/O seconds) per repetition
    stats_plain = stats_journaled = None
    journal_info: dict = {}
    try:
        for rep in range(repeats):
            seconds, stats_plain = _fleet_seconds(
                sizes=sizes, tau=tau, seed=seed, journal_dir=None
            )
            plain_s.append(seconds)
            rep_dir = root / f"rep-{rep}"
            seconds, stats_journaled = _fleet_seconds(
                sizes=sizes, tau=tau, seed=seed, journal_dir=str(rep_dir)
            )
            journaled_s.append(seconds)
            io_seconds = stats_journaled["journal_io_seconds"]
            io.append((io_seconds / seconds, io_seconds))
            journal_info = _check_journals(rep_dir, stats_journaled["results"])

        # Parity: journaling must not perturb a single iteration.
        for plain, journaled in zip(
            stats_plain["results"], stats_journaled["results"]
        ):
            if plain.history != journaled.history:
                raise AssertionError(
                    "journaled serving diverged from plain serving"
                )
    finally:
        if tmp is not None:
            tmp.cleanup()

    best_plain = min(plain_s)
    best_journaled = min(journaled_s)
    worst_ratio, worst_io_seconds = max(io)
    overhead_pct = 100.0 * worst_ratio
    results = stats_journaled["results"]
    return {
        "n_sessions": len(sizes),
        "n_rows": sum(sizes),
        "tau": tau,
        "repeats": repeats,
        "iterations": sum(r.iterations for r in results),
        "accepted_iterations": sum(r.accepted_iterations for r in results),
        "n_added": sum(r.n_added for r in results),
        "plain_seconds": best_plain,
        "journaled_seconds": best_journaled,
        "wall_delta_pct": 100.0 * (best_journaled - best_plain) / best_plain,
        "journal_io_seconds": worst_io_seconds,
        "overhead_pct": overhead_pct,
        "threshold_pct": OVERHEAD_PCT,
        "within_overhead": overhead_pct <= OVERHEAD_PCT,
        "parity": True,  # _check_journals/history asserts raised otherwise
        "journal_errors": stats_journaled["journal_errors"],
        "wall_seconds": time.perf_counter() - t0,
        **journal_info,
    }
