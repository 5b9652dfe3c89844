"""Tests for the bench-journal guard's reporting."""

from pathlib import Path
from types import SimpleNamespace

from repro.perf import journalbench


def test_reports_the_io_seconds_of_the_gated_repetition(monkeypatch, tmp_path, capsys):
    """Repetition 0 has the worst I/O share; its I/O seconds are printed."""
    from repro.experiments.cli import main

    io_per_journaled_run = iter([0.04, 0.01])  # 4% then 1% of a 1 s run
    result = SimpleNamespace(history=(), iterations=3, accepted_iterations=1, n_added=5)

    def fake_fleet(**kwargs):
        journaled = kwargs["journal_dir"] is not None
        io_seconds = next(io_per_journaled_run) if journaled else 0.0
        return 1.0, {
            "results": [result],
            "journal_errors": 0,
            "journal_io_seconds": io_seconds,
        }

    monkeypatch.setattr(journalbench, "_fleet_seconds", fake_fleet)
    monkeypatch.setattr(
        journalbench,
        "_check_journals",
        lambda journal_dir, results: {
            "n_journals": 1, "n_session_journals": 1, "journal_records": 4,
        },
    )
    assert main(["bench-journal", "--quick", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "journal I/O 40.0ms = 4.00% of serving time" in out


def test_each_repetition_journals_into_an_empty_directory(monkeypatch, tmp_path):
    """Served sessions resume journals they find, so a bench rerun over
    an old ``--out-dir`` must not time fast-forwards."""
    stale = tmp_path / "rep-0" / "tenant-0"
    stale.mkdir(parents=True)
    (stale / "segment-00000.jsonl").write_text("")
    result = SimpleNamespace(history=(), iterations=3, accepted_iterations=1, n_added=5)
    found = []

    def fake_fleet(**kwargs):
        if kwargs["journal_dir"] is not None:
            found.extend(Path(kwargs["journal_dir"]).glob("**/*"))
        return 1.0, {"results": [result], "journal_errors": 0, "journal_io_seconds": 0.0}

    monkeypatch.setattr(journalbench, "_fleet_seconds", fake_fleet)
    monkeypatch.setattr(journalbench, "_check_journals", lambda journal_dir, results: {})
    journalbench.run_journal_bench(quick=True, journal_dir=str(tmp_path), repeats=1)
    assert found == []
