"""Tests for the experiments CLI."""

import json

import pytest

from repro.experiments.cli import EXPERIMENTS, build_parser, main, run


class TestParser:
    def test_experiment_required(self):
        # The positional is optional at parse time (--list-strategies needs
        # no experiment) but main() still rejects a bare invocation.
        with pytest.raises(SystemExit):
            main([])

    def test_list_strategies(self, capsys):
        assert main(["--list-strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("random", "ip", "online", "relabel", "smote", "equal"):
            assert name in out

    def test_list_strategies_includes_plugins(self, capsys):
        from repro.engine import SELECTORS, register_selector

        @register_selector("cli-test-plugin")
        class Plugin:
            pass

        try:
            main(["--list-strategies"])
            assert "cli-test-plugin" in capsys.readouterr().out
        finally:
            SELECTORS.unregister("cli-test-plugin")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.dataset == "car"
        assert args.model == "LR"
        assert args.seed == 42

    def test_all_experiments_declared(self):
        assert set(EXPERIMENTS) == {
            "fig2", "fig3", "fig9", "table1", "table2", "table3", "table6",
            "ablation", "bench-mem", "bench-journal", "all", "run-spec",
            "status",
        }

    def test_list_datasets_prints_eta(self, capsys):
        assert main(["--list-datasets"]) == 0
        out = capsys.readouterr().out
        assert "adult" in out and "200" in out
        assert "register_dataset" in out

    def test_list_models(self, capsys):
        assert main(["--list-models"]) == 0
        out = capsys.readouterr().out
        for name in ("LR", "RF", "LGBM", "NB", "KNN"):
            assert name in out


class TestRun:
    def test_table1_instant(self):
        args = build_parser().parse_args(["table1"])
        records, text = run(args)
        assert len(records) == 8
        assert "Table 1" in text

    def test_ablation_tiny(self):
        args = build_parser().parse_args(
            ["ablation", "--parameter", "k", "--runs", "1", "--tau", "2"]
        )
        records, text = run(args)
        assert records
        assert "Ablation" in text

    def test_fig3_tiny(self):
        args = build_parser().parse_args(["fig3", "--runs", "1", "--tau", "2"])
        records, text = run(args)
        assert isinstance(records, list)


class TestSpecCommands:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(
            name="cli-smoke",
            datasets=("car",),
            models=("LR",),
            frs_sizes=(2,),
            tcfs=(0.2,),
            n_runs=1,
            seed=11,
            n=400,
            config={"tau": 2},
        )
        return str(spec.save(tmp_path / "spec.json"))

    def test_run_spec_requires_path(self):
        with pytest.raises(SystemExit):
            main(["run-spec"])

    def test_status_requires_store(self, spec_path):
        with pytest.raises(SystemExit, match="--store"):
            main(["status", spec_path])

    def test_run_spec_then_status(self, spec_path, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(["run-spec", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1 executed" in out

        assert main(["status", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "1/1 completed" in out and "0 missing" in out

        # Re-running serves everything from the store.
        assert main(["run-spec", spec_path, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "0 executed" in out and "1 from store" in out


class TestMain:
    def test_main_prints_and_saves(self, tmp_path, capsys):
        out = tmp_path / "t1.json"
        code = main(["table1", "--save", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        payload = json.loads(out.read_text())
        assert payload["name"] == "table1"
        assert len(payload["records"]) == 8
