"""Smoke tests for the figure/table experiment drivers (tiny scales)."""

import pytest

from repro.experiments import (
    RunSpec,
    format_ablation,
    format_fig2,
    format_fig3,
    format_fig9,
    format_table2,
    format_table3,
    format_table6,
    run_ablation,
    run_fig2,
    run_fig3,
    run_fig9,
    run_table2,
    run_table3,
    run_table6,
)
from repro.experiments.kinds import frote_config_for

TINY = dict(n_runs=1, tau=4, random_state=42)


def spec_config(dataset, **config):
    """The :class:`FroteConfig` a ``frote`` spec run on ``dataset`` gets."""
    spec = RunSpec(
        experiment="frote", dataset=dataset, model="LR", frs_size=1, tcf=0.0,
        run=0, seed=0, context_seed=0, config=config,
    )
    return frote_config_for(spec)


class TestDefaultConfig:
    def test_paper_eta_applied(self):
        assert spec_config("car").eta == 20
        assert spec_config("adult").eta == 200

    def test_spec_eta_overrides_paper_eta(self):
        assert spec_config("adult", eta=20).eta == 20

    def test_unknown_dataset_uses_uniform_quota(self):
        cfg = spec_config("unknown")
        assert cfg.eta is None

    def test_paper_eta_is_live_registry_view(self):
        from repro.datasets import DATASETS, load_car, register_dataset

        assert DATASETS["car"].eta == 20
        assert DATASETS["adult"].eta == 200
        register_dataset(
            "eta-view-test", load_car, paper_instances=1, n_numeric=0,
            n_nominal=6, n_labels=4, default_instances=100, eta=77,
        )
        try:
            assert DATASETS["eta-view-test"].eta == 77  # live, not a snapshot
            assert spec_config("eta-view-test").eta == 77
        finally:
            DATASETS.unregister("eta-view-test")
        assert spec_config("eta-view-test").eta is None


class TestFig2:
    def test_records_and_format(self):
        recs = run_fig2(
            "car", "LR", tcf_values=(0.0, 0.2), frs_sizes=(2,), **TINY
        )
        assert recs
        for r in recs:
            assert 0.0 <= r["j_final"] <= 1.0
            assert {"j_initial", "j_mod", "j_final"} <= set(r)
        out = format_fig2(recs)
        assert "tcf=0.0" in out and "final" in out


class TestFig3:
    def test_records_and_format(self):
        recs = run_fig3("car", "LR", frs_sizes=(2, 3), **TINY)
        assert recs
        sizes = {r["frs_size"] for r in recs}
        assert sizes <= {2, 3}
        assert "|F|=" in format_fig3(recs)


class TestFig9:
    def test_progress_traces_monotone_n(self):
        recs = run_fig9(
            "car", "LR", tcf_values=(0.2,), frs_size=2, n_runs=1, tau=5,
            random_state=42,
        )
        assert recs
        for r in recs:
            assert len(r["n_added"]) == len(r["j_test"])
            assert all(b >= a for a, b in zip(r["n_added"], r["n_added"][1:]))
        assert "tcf=" in format_fig9(recs)


class TestTable2:
    def test_records_and_format(self):
        recs = run_table2("car", "LR", **TINY)
        assert recs
        r = recs[0]
        for key in ("overlay_soft", "overlay_hard", "frote"):
            assert {"delta_j", "delta_mra", "delta_f1"} <= set(r[key])
        out = format_table2(recs)
        assert "Overlay-Soft" in out and "FROTE" in out


class TestTable3:
    def test_records_and_format(self):
        recs = run_table3("car", "LR", frs_sizes=(2,), **TINY)
        assert recs
        r = recs[0]
        assert "random_delta_j" in r and "ip_delta_j" in r
        assert "dJ random" in format_table3(recs)


class TestTable6:
    def test_records_and_format(self):
        recs = run_table6(
            "car", probabilities=(0.5, 1.0), n_runs=1, tau=4, random_state=42
        )
        assert recs
        ps = {r["p"] for r in recs}
        assert ps <= {0.5, 1.0}
        assert "delta_mra" in format_table6(recs)


class TestAblation:
    def test_k_sweep(self):
        recs = run_ablation(
            "car", "LR", parameter="k", values=(3, 5), n_runs=1, tau=3,
            random_state=42,
        )
        assert recs
        assert {r["value"] for r in recs} <= {3, 5}
        assert "Ablation" in format_ablation(recs)

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="parameter"):
            run_ablation("car", "LR", parameter="zeta", values=(1,))
