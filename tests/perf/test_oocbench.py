"""Tests for the out-of-core workload worker and the bench-mem guard."""

import json

import pytest

from repro.perf import oocbench
from repro.perf.oocbench import run_streaming_workload


class TestStreamingWorkload:
    @pytest.fixture(scope="class")
    def record(self):
        # Tiny configuration: a few KB of budget, sub-second runtime.
        return run_streaming_workload(
            budget_mb=0.05, batch_rows=256, shard_rows=64, seed=0
        )

    def test_record_shape(self, record):
        for key in (
            "rows", "steps", "dense_mb", "budget_mb", "baseline_rss_mb",
            "peak_rss_mb", "workload_rss_mb", "rss_limit_mb", "within_budget",
            "n_shards", "n_spilled_shards", "spilled_mb", "seconds",
        ):
            assert key in record, key
        assert record["scenario"] == "out_of_core"
        json.dumps(record)  # JSON-serializable as printed by the worker

    def test_dataset_grew_past_budget_with_spills(self, record):
        assert record["dense_mb"] > record["budget_mb"]
        assert record["n_spilled_shards"] > 0
        assert record["spilled_mb"] > 0
        assert record["rows"] == (record["steps"] + 1) * 256

    def test_rss_limit_formula(self, record):
        assert record["rss_limit_mb"] == pytest.approx(
            record["budget_mb"] * 1.5 + record["tolerance_mb"], abs=0.02
        )
        assert record["within_budget"] == (
            record["workload_rss_mb"] <= record["rss_limit_mb"]
        )


def worker_record(**overrides):
    record = {
        "rows": 131072,
        "dense_mb": 24.0,
        "budget_mb": 24.0,
        "tolerance_mb": 48.0,
        "workload_rss_mb": 60.0,
        "rss_limit_mb": 84.0,
        "within_budget": True,
        "n_spilled_shards": 6,
        "spilled_mb": 18.0,
    }
    record.update(overrides)
    return record


class TestBenchMemCli:
    def _patch_worker(self, monkeypatch, record):
        calls = []

        def fake_worker(**kwargs):
            calls.append(kwargs)
            return record

        monkeypatch.setattr(oocbench, "run_out_of_core", fake_worker)
        return calls

    def test_pass_exits_zero(self, monkeypatch, capsys):
        from repro.experiments.cli import main

        calls = self._patch_worker(monkeypatch, worker_record())
        assert main(["bench-mem", "--quick"]) == 0
        assert calls == [{"budget_mb": 24.0, "seed": 42}]
        assert "OK: peak RSS within the memory budget" in capsys.readouterr().out

    def test_over_budget_exits_nonzero(self, monkeypatch, capsys):
        from repro.experiments.cli import main

        self._patch_worker(
            monkeypatch,
            worker_record(within_budget=False, workload_rss_mb=160.0),
        )
        with pytest.raises(SystemExit) as exc:
            main(["bench-mem"])
        assert exc.value.code == 1
        assert (
            "workload RSS 160.0 MiB exceeds the 84.0 MiB bound"
            in capsys.readouterr().out
        )
