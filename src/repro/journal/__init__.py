"""Durable run journals: append-only observability for every run mode.

``repro.journal`` persists what the event seams already emit —
:class:`~repro.engine.state.ProgressEvent` streams from edit sessions,
:class:`~repro.experiments.grid.ExperimentEvent` streams from grids, and
the serving layer's admission/quantum telemetry — as segmented,
hash-chained, strict-JSON journals that survive crashes and power three
consumers: a replay debugger (:class:`SessionReplay`), journal-based
crash-resume (``EditSession.journaled(...)``: ``EditSession.start()``
fast-forwards committed iterations, for ``run()`` and served sessions
alike), and the ``repro-journal`` status/tail/counters CLI.

Entry points::

    repro.edit(data)...journaled("runs/").run()     # library runs
    ExperimentRunner(journal_dir="runs/")           # grids
    EditService(journal_dir="runs/")                # served sessions
    repro-journal status runs/                      # afterwards
"""

from repro.journal.reader import JournalReader, ScanResult, Truncation
from repro.journal.records import Record
from repro.journal.replay import (
    JournalResumeError,
    ReplayIteration,
    SessionReplay,
)
from repro.journal.status import export_counters, format_status, journal_rows
from repro.journal.writer import JournalError, JournalWriter, SessionJournal

__all__ = [
    "JournalError",
    "JournalReader",
    "JournalResumeError",
    "JournalWriter",
    "Record",
    "ReplayIteration",
    "ScanResult",
    "SessionJournal",
    "SessionReplay",
    "Truncation",
    "export_counters",
    "format_status",
    "journal_rows",
]
