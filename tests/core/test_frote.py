"""Tests for the FROTE main loop (Algorithm 1), run through
:func:`repro.edit`."""

import numpy as np
import pytest

import repro
from repro.core import FroteConfig
from repro.models import LogisticRegression, make_algorithm
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause


@pytest.fixture
def algorithm():
    return make_algorithm(lambda: LogisticRegression(max_iter=200))


def edit_run(dataset, algorithm, frs, cfg):
    return (
        repro.edit(dataset)
        .with_rules(frs)
        .with_algorithm(algorithm)
        .configure(**cfg)
        .run()
    )


@pytest.fixture
def flip_rule(mixed_dataset):
    """A rule that contradicts the data: young high-earners -> deny."""
    return FeedbackRuleSet(
        (
            FeedbackRule.deterministic(
                clause(
                    Predicate("age", "<", 35.0),
                    Predicate("income", ">", 120.0),
                ),
                0,
                2,
                name="flip",
            ),
        )
    )


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = FroteConfig()
        assert cfg.tau == 200 and cfg.q == 0.5 and cfg.k == 5
        assert cfg.random_state == 42

    def test_effective_eta_uniform_quota(self):
        cfg = FroteConfig(tau=100, q=0.5)
        assert cfg.effective_eta(1000) == 5

    def test_effective_eta_explicit(self):
        assert FroteConfig(eta=20).effective_eta(10**6) == 20

    def test_quota(self):
        assert FroteConfig(q=0.5).oversampling_quota(100) == 50

    def test_quota_rounding_matches_effective_eta(self):
        # Regression: the quota used int() (floor) while effective_eta used
        # round(); both must use the same rounding rule.
        cfg = FroteConfig(tau=1, q=0.7)
        for n in (1, 3, 7, 99, 101, 1234):
            assert cfg.oversampling_quota(n) == int(round(0.7 * n))
            assert cfg.effective_eta(n) == max(1, int(round(0.7 * n)))

    def test_quota_rounds_rather_than_floors(self):
        assert FroteConfig(q=0.5).oversampling_quota(75) == 38  # was 37

    def test_q_upper_bound(self):
        with pytest.raises(ValueError, match="percentage"):
            FroteConfig(q=50.0)

    def test_q_inf_means_unbounded(self):
        cfg = FroteConfig(q=float("inf"), eta=5)
        assert cfg.oversampling_quota(100) > 10**9
        assert FroteConfig(q=float("inf")).effective_eta(100) == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0},
            {"q": 0.0},
            {"q": 11.0},
            {"eta": 0},
            {"k": 0},
            {"mra_weight": 1.5},
            {"selection": "bogus"},
            {"mod_strategy": "bogus"},
            {"objective": "bogus"},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            FroteConfig(**kwargs)

    def test_unknown_selection_suggests_close_match(self):
        with pytest.raises(ValueError, match="did you mean 'random'"):
            FroteConfig(selection="randam")

    def test_unknown_mod_strategy_enumerates_registered(self):
        with pytest.raises(ValueError, match="drop, none, relabel"):
            FroteConfig(mod_strategy="bogus")

    def test_registered_plugin_accepted(self):
        from repro.engine import SELECTORS, register_selector

        @register_selector("config-test-plugin")
        class Plugin:
            def select(self, bp, eta, ctx):  # pragma: no cover
                return []

        try:
            cfg = FroteConfig(selection="config-test-plugin")
            assert cfg.selection == "config-test-plugin"
        finally:
            SELECTORS.unregister("config-test-plugin")


class TestRun:
    def test_improves_training_objective(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=10, q=1.0, eta=15, mod_strategy="none", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        init = result.initial_evaluation.loss_equal()
        final = result.final_evaluation.loss_equal()
        assert final <= init

    def test_quota_respected(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=50, q=0.2, eta=10, random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        # n may exceed quota by at most one batch (the loop condition is
        # checked before generation).
        assert result.n_added <= int(0.2 * mixed_dataset.n) + 10

    def test_iteration_limit(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=3, q=5.0, eta=5, random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.iterations <= 3
        assert len(result.history) <= 3

    def test_rejected_batches_not_added(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=10, q=1.0, eta=10, random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        accepted_total = sum(r.n_generated for r in result.history if r.accepted)
        assert result.n_added == accepted_total

    def test_augmented_dataset_contains_original(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=5, q=0.5, eta=10, mod_strategy="none", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.dataset.n == mixed_dataset.n + result.n_added
        np.testing.assert_allclose(
            result.dataset.X.column("age")[: mixed_dataset.n],
            mixed_dataset.X.column("age"),
        )

    def test_synthetic_rows_satisfy_rule(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=10, q=0.5, eta=10, mod_strategy="none", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        if result.n_added:
            synth = result.dataset.X.take(
                np.arange(mixed_dataset.n, result.dataset.n)
            )
            assert flip_rule[0].coverage_mask(synth).all()

    def test_relabel_strategy_applied(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=2, q=0.1, eta=5, mod_strategy="relabel", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.n_relabelled > 0
        rule = flip_rule[0]
        original_rows = result.dataset.take(np.arange(mixed_dataset.n))
        cov = rule.coverage_mask(original_rows.X)
        assert (original_rows.y[cov] == rule.target_class).all()

    def test_drop_strategy_shrinks_dataset(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=2, q=0.1, eta=5, mod_strategy="drop", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.n_dropped > 0

    def test_eval_callback_recorded(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=8, q=1.0, eta=10, random_state=0)
        calls = []

        def cb(model):
            calls.append(1)
            return 0.5

        result = (
            repro.edit(mixed_dataset)
            .with_rules(flip_rule)
            .with_algorithm(algorithm)
            .configure(**cfg)
            .track_metric(cb)
            .run()
        )
        accepted = [r for r in result.history if r.accepted]
        assert len(calls) == len(accepted)
        assert all(r.external_score == 0.5 for r in accepted)

    def test_empty_frs_raises(self, mixed_dataset, algorithm):
        with pytest.raises(ValueError, match="no feedback rules"):
            edit_run(mixed_dataset, algorithm, FeedbackRuleSet(()), {})

    def test_reproducible(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=5, q=0.5, eta=10, random_state=11)
        a = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        b = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert a.n_added == b.n_added
        np.testing.assert_allclose(
            a.dataset.X.column("age"), b.dataset.X.column("age")
        )

    def test_ip_selection_runs(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=3, q=0.5, eta=10, selection="ip", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.iterations == 3

    def test_online_selection_runs(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=2, q=0.5, eta=6, selection="online", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.iterations == 2

    def test_added_fraction(self, mixed_dataset, algorithm, flip_rule):
        cfg = dict(tau=5, q=0.5, eta=10, mod_strategy="none", random_state=0)
        result = edit_run(mixed_dataset, algorithm, flip_rule, cfg)
        assert result.added_fraction == pytest.approx(
            result.n_added / mixed_dataset.n
        )

    def test_zero_coverage_rule_relaxation_path(self, mixed_dataset, algorithm):
        """A rule with no coverage at all must still generate (via relaxation)."""
        frs = FeedbackRuleSet(
            (
                FeedbackRule.deterministic(
                    clause(
                        Predicate("age", "<", 35.0),
                        Predicate("income", ">", 5000.0),  # impossible
                    ),
                    0,
                    2,
                ),
            )
        )
        cfg = dict(tau=5, q=0.5, eta=10, mod_strategy="none", random_state=0)
        result = edit_run(mixed_dataset, algorithm, frs, cfg)
        if result.n_added:
            synth = result.dataset.X.take(np.arange(mixed_dataset.n, result.dataset.n))
            assert frs[0].coverage_mask(synth).all()
