"""Smoke tests: the perf harness emits schema-valid ``BENCH_*.json``."""

import json

import pytest

from repro.perf.harness import (
    END2END_FILENAME,
    HOTPATHS_FILENAME,
    SCHEMA_VERSION,
    CompareRecord,
    End2EndRecord,
    best_of,
    compare,
    format_records,
    geomean,
    validate_bench_payload,
    write_end2end_json,
    write_hotpaths_json,
)


def _compare_record(**overrides):
    base = dict(
        name="kernel", dataset="synthetic", n_rows=100, repeats=2,
        seed_seconds=0.2, current_seconds=0.05, speedup=4.0,
    )
    base.update(overrides)
    return CompareRecord(**base)


def _end2end_record(**overrides):
    base = dict(
        name="run", dataset="car", n_rows=300, tau=5, seconds=1.5,
        iterations=5, accepted_iterations=3, n_added=40,
        seconds_per_iteration=0.3,
    )
    base.update(overrides)
    return End2EndRecord(**base)


class TestWriters:
    def test_hotpaths_json_schema_valid(self, tmp_path):
        path = write_hotpaths_json(
            [_compare_record(), _compare_record(dataset="adult", speedup=2.0)],
            out_dir=tmp_path, quick=True, seed=0,
        )
        assert path.name == HOTPATHS_FILENAME
        payload = json.loads(path.read_text())
        validate_bench_payload(payload)  # must not raise
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["kind"] == "hotpaths"
        assert payload["summary"]["synthetic_geomean_speedup"] == 4.0
        assert payload["summary"]["adult_geomean_speedup"] == 2.0

    def test_end2end_json_schema_valid(self, tmp_path):
        path = write_end2end_json(
            [_end2end_record()], out_dir=tmp_path, quick=False, seed=42
        )
        assert path.name == END2END_FILENAME
        payload = json.loads(path.read_text())
        validate_bench_payload(payload)
        assert payload["kind"] == "end2end"
        assert payload["quick"] is False
        assert payload["summary"]["n_runs"] == 1


class TestValidation:
    def _valid_payload(self, tmp_path):
        path = write_hotpaths_json(
            [_compare_record()], out_dir=tmp_path, quick=True, seed=0
        )
        return json.loads(path.read_text())

    def test_missing_envelope_key_rejected(self, tmp_path):
        payload = self._valid_payload(tmp_path)
        del payload["results"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_bench_payload(payload)

    def test_unknown_kind_rejected(self, tmp_path):
        payload = self._valid_payload(tmp_path)
        payload["kind"] = "warp-speed"
        with pytest.raises(ValueError, match="unknown BENCH kind"):
            validate_bench_payload(payload)

    def test_wrong_record_keys_rejected(self, tmp_path):
        payload = self._valid_payload(tmp_path)
        del payload["results"][0]["speedup"]
        with pytest.raises(ValueError, match="results\\[0\\]"):
            validate_bench_payload(payload)

    def test_negative_timing_rejected(self, tmp_path):
        payload = self._valid_payload(tmp_path)
        payload["results"][0]["seed_seconds"] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            validate_bench_payload(payload)

    def test_wrong_schema_version_rejected(self, tmp_path):
        payload = self._valid_payload(tmp_path)
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            validate_bench_payload(payload)


class TestTiming:
    def test_best_of_runs_fn(self):
        calls = []
        t = best_of(lambda: calls.append(1), repeats=3)
        assert len(calls) == 3 and t >= 0.0

    def test_best_of_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            best_of(lambda: None, repeats=0)

    def test_compare_warms_up_then_times(self):
        seed_calls, cur_calls = [], []
        rec = compare(
            "x", "synthetic", 10,
            lambda: seed_calls.append(1), lambda: cur_calls.append(1), repeats=2,
        )
        # 1 warm-up + 2 timed rounds per side.
        assert len(seed_calls) == 3 and len(cur_calls) == 3
        assert rec.speedup > 0

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0


class TestFormatting:
    def test_format_both_record_kinds(self):
        out = format_records([_compare_record()], "t1")
        assert "speedup" in out and "4.0x" in out
        out = format_records([_end2end_record()], "t2")
        assert "s/iter" in out
        assert format_records([], "empty").endswith("(no records)")


class TestCliIntegration:
    def test_cli_bench_quick_writes_both_files(self, tmp_path, monkeypatch):
        """`python -m repro.experiments.cli bench --quick` contract, scaled down."""
        from repro.experiments import cli
        from repro.perf.hotpaths import synthetic_mixed_table

        # Patch the heavy benchmark runners with fast stand-ins; the CLI
        # path under test is dispatch + JSON writing, not the kernels.
        monkeypatch.setattr(
            "repro.perf.run_hotpath_benchmarks",
            lambda **kw: [_compare_record()],
        )
        monkeypatch.setattr(
            "repro.perf.run_end2end_benchmarks",
            lambda **kw: [_end2end_record()],
        )
        assert synthetic_mixed_table(50, 0).n_rows == 50  # harness dataset sanity
        rc = cli.main(["bench", "--quick", "--out-dir", str(tmp_path)])
        assert rc == 0
        for name in (HOTPATHS_FILENAME, END2END_FILENAME):
            validate_bench_payload(json.loads((tmp_path / name).read_text()))


class TestCartFitHotPath:
    def test_records_a_speedup(self):
        from repro.perf.hotpaths import run_hotpath_benchmarks

        (record,) = run_hotpath_benchmarks(
            quick=True, datasets=("synthetic",), only=["cart_fit"]
        )
        assert record.name == "cart_fit"
        assert record.seed_seconds > 0 and record.current_seconds > 0

    def test_refuses_forests_that_predict_differently(self, monkeypatch):
        from repro.models import RandomForestClassifier
        from repro.perf import seed_reference
        from repro.perf.hotpaths import run_hotpath_benchmarks

        class HalvedForest(RandomForestClassifier):
            def predict_proba(self, X):
                return super().predict_proba(X) / 2

        monkeypatch.setattr(seed_reference, "SeedSplitForest", HalvedForest)
        with pytest.raises(AssertionError, match="cart_fit on synthetic"):
            run_hotpath_benchmarks(quick=True, datasets=("synthetic",), only=["cart_fit"])


class TestLrFitHotPath:
    def test_records_a_speedup(self):
        from repro.perf.hotpaths import run_hotpath_benchmarks

        (record,) = run_hotpath_benchmarks(
            quick=True, datasets=("synthetic",), only=["lr_fit"]
        )
        assert record.name == "lr_fit"
        assert record.seed_seconds > 0 and record.current_seconds > 0
        assert record.extra["lbfgs_iters"] > 0

    def test_refuses_fits_with_different_coefficients(self, monkeypatch):
        from repro.models import LogisticRegression
        from repro.perf import seed_reference
        from repro.perf.hotpaths import run_hotpath_benchmarks

        class LooserLR(LogisticRegression):
            def __init__(self, max_iter=500):
                super().__init__(max_iter=max_iter, tol=1e-3)

        monkeypatch.setattr(seed_reference, "SeedObjectiveLR", LooserLR)
        with pytest.raises(AssertionError, match="lr_fit on synthetic"):
            run_hotpath_benchmarks(quick=True, datasets=("synthetic",), only=["lr_fit"])

    def test_refuses_fits_with_different_probabilities(self, monkeypatch):
        from repro.perf import seed_reference
        from repro.perf.hotpaths import run_hotpath_benchmarks

        class HalvedLR(seed_reference.SeedObjectiveLR):
            def predict_proba(self, X):
                return super().predict_proba(X) / 2

        monkeypatch.setattr(seed_reference, "SeedObjectiveLR", HalvedLR)
        with pytest.raises(AssertionError, match="lr_fit on synthetic"):
            run_hotpath_benchmarks(quick=True, datasets=("synthetic",), only=["lr_fit"])
