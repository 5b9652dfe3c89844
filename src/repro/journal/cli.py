"""``repro-journal``: status, tail, replay, and counters over journals.

Subcommands
-----------
``repro-journal status <root>``
    One collapsed row per journal (per workload for grids): iteration
    counts, accept/reject split, rows added, best loss, and whether the
    journal is finished, in progress, or truncated (and why).
``repro-journal tail <journal> [-n N]``
    The last N verified records, one compact line each.
``repro-journal replay <journal> [--json]``
    Reconstruct a session's full per-iteration history from the journal
    alone — the post-hoc "why was this batch rejected" view.
``repro-journal counters <root>``
    Monotonic counters/gauges as JSON lines for dashboard scrapers.

``--strict`` (any subcommand) exits non-zero when a scanned journal is
truncated or corrupt, for CI gating.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.persistence import dump_json, to_jsonable
from repro.journal.reader import JournalReader
from repro.journal.replay import SessionReplay
from repro.journal.status import (
    discover_journals,
    export_counters,
    format_status,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-journal",
        description="Inspect append-only run journals (sessions, grids, serving).",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero if any scanned journal is truncated or corrupt",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_status = sub.add_parser("status", help="collapsed per-journal table")
    p_status.add_argument("root", help="journal directory or tree of journals")

    p_tail = sub.add_parser("tail", help="last records of one journal")
    p_tail.add_argument("journal", help="one journal directory")
    p_tail.add_argument("-n", type=int, default=10, help="records to show")

    p_replay = sub.add_parser(
        "replay", help="reconstruct a session's history from its journal"
    )
    p_replay.add_argument("journal", help="one session journal directory")
    p_replay.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p_counters = sub.add_parser("counters", help="counters as JSON lines")
    p_counters.add_argument("root", help="journal directory or tree of journals")
    return parser


def _truncation_failures(root: str) -> list[str]:
    failures = []
    for journal in discover_journals(root):
        scan = JournalReader(journal).scan()
        if scan.truncation is not None:
            t = scan.truncation
            failures.append(
                f"{journal}: {t.reason} in segment {t.segment} "
                f"({t.detail}); last good seq {t.last_good_seq}"
            )
    return failures


def _cmd_status(args) -> int:
    print(format_status(args.root))
    return _strict_exit(args, args.root)


def _cmd_tail(args) -> int:
    reader = JournalReader(args.journal)
    for record in reader.tail(args.n):
        print(
            f"seq={record.seq:<6d} segment={record.segment:<3d} "
            f"{record.kind:<14s} {dump_json(to_jsonable(record.data), indent=None)}"
        )
    scan = reader.scan()
    if scan.truncation is not None:
        t = scan.truncation
        print(
            f"!! truncated: {t.reason} in segment {t.segment} "
            f"({t.detail}); last good seq {t.last_good_seq}",
            file=sys.stderr,
        )
    return _strict_exit(args, args.journal)


def _cmd_replay(args) -> int:
    replay = SessionReplay.load(args.journal)
    summary = replay.summary()
    if args.json:
        payload = {
            "summary": summary,
            "meta": replay.meta,
            "schema_timeline": replay.schema_timeline(),
            "iterations": [
                {
                    "iteration": it.iteration,
                    "kind": it.kind,
                    "candidate_loss": it.candidate_loss,
                    "best_loss": it.best_loss,
                    "n_generated": it.n_generated,
                    "n_added_total": it.n_added_total,
                    "external_score": it.external_score,
                    "n_active": it.n_active,
                    "iteration_seconds": it.iteration_seconds,
                    "stage_seconds": it.stage_seconds,
                }
                for it in replay.iterations
            ],
        }
        print(dump_json(to_jsonable(payload)))
    else:
        from repro.experiments.report import format_table

        rows = [
            {
                "iter": it.iteration,
                "verdict": it.kind,
                "cand_loss": f"{it.candidate_loss:.4f}",
                "best_loss": f"{it.best_loss:.4f}",
                "generated": it.n_generated,
                "added_total": it.n_added_total,
                "seconds": (
                    f"{it.iteration_seconds:.3f}"
                    if it.iteration_seconds is not None
                    else ""
                ),
            }
            for it in replay.iterations
        ]
        title = (
            f"{args.journal}: {summary['iterations']} iterations "
            f"({summary['accepted']} accepted, {summary['rejected']} rejected, "
            f"{summary['empty']} empty), {summary['n_added']} rows added, "
            f"runs={summary['runs']} resumes={summary['resumes']}, "
            f"{'finished' if summary['finished'] else 'in progress'}"
        )
        print(format_table(rows, title=title))
        for row in replay.schema_timeline():
            refit = "refit" if row["model_refit"] else "no refit"
            print(
                f"schema @ iter {row['iteration']}: {row['op']} "
                f"{row['column']} -> version {row['version']} "
                f"({row['provenance']}, {refit})"
            )
        if summary["truncation"]:
            print(f"!! {summary['truncation']}", file=sys.stderr)
    return _strict_exit(args, args.journal)


def _cmd_counters(args) -> int:
    for entry in export_counters(args.root):
        print(dump_json(to_jsonable(entry), indent=None))
    return _strict_exit(args, args.root)


def _strict_exit(args, root) -> int:
    if not args.strict:
        return 0
    failures = _truncation_failures(str(root))
    for failure in failures:
        print(f"strict: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run(args: argparse.Namespace) -> int:
    handlers = {
        "status": _cmd_status,
        "tail": _cmd_tail,
        "replay": _cmd_replay,
        "counters": _cmd_counters,
    }
    return handlers[args.command](args)


def main(argv: list[str] | None = None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
