"""Property-based tests of FROTE's run-level invariants.

These complement the example-based tests in ``test_frote.py``: for
arbitrary small configurations and data seeds, the invariants of
Algorithm 1 must hold — monotone loss on acceptance, quota/iteration
bounds, dataset growth accounting, provenance consistency, and
rule-satisfaction of all synthetic rows.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import SYNTHETIC, FroteConfig
from repro.data import Dataset, Table, make_schema
from repro.models import GaussianNB, make_algorithm
from repro.rules import FeedbackRule, FeedbackRuleSet, Predicate, clause


def _make_dataset(seed: int, n: int) -> Dataset:
    schema = make_schema(
        numeric=["a", "b"], categorical={"c": ("u", "v", "w")}
    )
    rng = np.random.default_rng(seed)
    t = Table(
        schema,
        {
            "a": rng.uniform(0, 10, n),
            "b": rng.normal(0, 1, n),
            "c": rng.integers(0, 3, n),
        },
    )
    y = ((t.column("a") > 5) ^ (t.column("c") == 0)).astype(np.int64)
    return Dataset(t, y, ("no", "yes"))


def _make_frs(seed: int) -> FeedbackRuleSet:
    rng = np.random.default_rng(seed + 10_000)
    lo = float(rng.uniform(1, 4))
    hi = lo + float(rng.uniform(1, 4))
    target = int(rng.integers(0, 2))
    return FeedbackRuleSet(
        (
            FeedbackRule.deterministic(
                clause(Predicate("a", ">=", lo), Predicate("a", "<", hi)),
                target,
                2,
            ),
        )
    )


# GaussianNB is the fastest trainer; properties are about the loop, not
# the model.
_ALGORITHM = make_algorithm(lambda: GaussianNB())


def _edit(dataset, frs, cfg):
    return (
        repro.edit(dataset)
        .with_rules(frs)
        .with_algorithm(_ALGORITHM)
        .configure(**cfg)
        .run()
    )


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    tau=st.integers(min_value=1, max_value=6),
    eta=st.integers(min_value=1, max_value=15),
    q=st.floats(min_value=0.05, max_value=1.0),
    mod=st.sampled_from(["none", "relabel", "drop"]),
)
def test_run_invariants(seed, tau, eta, q, mod):
    dataset = _make_dataset(seed, 120)
    frs = _make_frs(seed)
    cfg = dict(
        tau=tau, q=q, eta=eta, mod_strategy=mod, random_state=seed
    )
    result = _edit(dataset, frs, cfg)

    # 1. Iteration and history bounds.
    assert result.iterations <= tau
    assert len(result.history) <= tau

    # 2. Growth accounting: final size = input - dropped + added.
    assert result.dataset.n == dataset.n - result.n_dropped + result.n_added

    # 3. Quota: n_added never exceeds the quota by more than one batch.
    # The quota rounds half-to-even (FroteConfig.oversampling_quota), so
    # the bound must use the same rounding — int(q * n) truncates and is
    # one short whenever q·n lands on .5 (e.g. q=0.0625, n=120).
    n_input = dataset.n - result.n_dropped
    assert result.n_added <= FroteConfig(**cfg).oversampling_quota(n_input) + eta

    # 4. Provenance matches the dataset row for row.
    assert result.provenance is not None
    assert result.provenance.n == result.dataset.n
    assert result.provenance.counts()[SYNTHETIC] == result.n_added

    # 5. Every synthetic row satisfies its generating rule.
    synth_rows = np.flatnonzero(result.provenance.kind == SYNTHETIC)
    if synth_rows.size:
        synth = result.dataset.X.take(synth_rows)
        for r, rule in enumerate(frs):
            rows_r = result.provenance.rule_index[synth_rows] == r
            if rows_r.any():
                sub = synth.loc_mask(rows_r)
                assert rule.coverage_mask(sub).all()

    # 6. Accepted-batch losses are strictly decreasing.
    accepted_losses = [
        rec.candidate_loss for rec in result.history if rec.accepted
    ]
    assert all(
        b < a + 1e-12 for a, b in zip(accepted_losses, accepted_losses[1:])
    )

    # 7. Synthetic labels come from the rules' supports.
    if synth_rows.size:
        labels = result.dataset.y[synth_rows]
        for r, rule in enumerate(frs):
            rows_r = result.provenance.rule_index[synth_rows] == r
            if rows_r.any():
                pi = rule.pi_array()
                assert np.all(pi[labels[rows_r]] > 0)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_determinism_property(seed):
    """Identical configuration and data produce identical results."""
    dataset = _make_dataset(seed, 100)
    frs = _make_frs(seed)
    cfg = dict(tau=3, q=0.5, eta=8, random_state=seed)
    a = _edit(dataset, frs, cfg)
    b = _edit(dataset, frs, cfg)
    assert a.n_added == b.n_added
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.dataset.y, b.dataset.y)
    np.testing.assert_allclose(
        a.dataset.X.column("a"), b.dataset.X.column("a")
    )


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    n=st.integers(min_value=30, max_value=200),
)
def test_original_rows_never_mutated_without_mod(seed, n):
    """With mod_strategy='none' the input rows pass through bit-identical."""
    dataset = _make_dataset(seed, n)
    frs = _make_frs(seed)
    cfg = dict(tau=2, q=0.5, eta=8, mod_strategy="none", random_state=seed)
    result = _edit(dataset, frs, cfg)
    np.testing.assert_array_equal(result.dataset.y[: dataset.n], dataset.y)
    for col in dataset.X.schema.names:
        np.testing.assert_array_equal(
            result.dataset.X.column(col)[: dataset.n], dataset.X.column(col)
        )
