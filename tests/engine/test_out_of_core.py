"""Out-of-core session tests: the sharded path is bit-identical to dense."""

import numpy as np
import pytest

import repro
from repro.core.config import FroteConfig
from repro.data import Dataset, ShardedTable
from repro.engine.state import EditState
from repro.serve.cli import synthetic_mixed_table


def make_dataset(n=1200, seed=42):
    table = synthetic_mixed_table(n, seed)
    rng = np.random.default_rng(seed + 1)
    y = ((table.column("age") < 40) & (table.column("income") > 100)).astype(np.int64)
    noise = rng.uniform(size=n) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(table, y, ("deny", "approve"))


def session(dataset, **configure):
    return (
        repro.edit(dataset)
        .with_rules(
            "age < 35 => approve",
            "income < 40 AND marital = 'single' => deny",
        )
        .with_algorithm("LR")
        .configure(tau=6, q=0.5, random_state=42, **configure)
    )


class TestOutOfCoreSession:
    def test_bit_identical_to_dense_path(self):
        """The ISSUE acceptance criterion at test scale: a full edit-loop
        run with a resident budget far below the dense size produces a
        bit-identical FroteResult, with real spills along the way."""
        dataset = make_dataset()
        dense = session(dataset).run()
        ooc = session(dataset).out_of_core(0.01, shard_rows=128).run()

        assert isinstance(ooc.dataset.X, ShardedTable)
        stats = ooc.dataset.X.storage_stats()
        assert stats["n_spilled"] > 0  # the budget actually bound storage
        assert dense.n_added == ooc.n_added and dense.n_added > 0
        for name in dataset.X.schema.names:
            np.testing.assert_array_equal(
                ooc.dataset.X.column(name), dense.dataset.X.column(name)
            )
        np.testing.assert_array_equal(ooc.dataset.y, dense.dataset.y)
        assert [
            (r.candidate_loss, r.accepted, r.n_generated) for r in dense.history
        ] == [(r.candidate_loss, r.accepted, r.n_generated) for r in ooc.history]
        assert dense.final_evaluation.mra == ooc.final_evaluation.mra
        assert dense.final_evaluation.f1_outside == ooc.final_evaluation.f1_outside

    def test_incremental_composes_with_out_of_core(self):
        dataset = make_dataset(800, seed=7)
        dense = session(dataset, incremental=True).run()
        ooc = (
            session(dataset, incremental=True)
            .out_of_core(0.01, shard_rows=64)
            .run()
        )
        np.testing.assert_array_equal(ooc.dataset.y, dense.dataset.y)
        assert [r.candidate_loss for r in dense.history] == [
            r.candidate_loss for r in ooc.history
        ]

    def test_spill_dir_is_honoured(self, tmp_path):
        dataset = make_dataset(600, seed=3)
        result = (
            session(dataset)
            .out_of_core(0.005, shard_rows=64, spill_dir=str(tmp_path))
            .run()
        )
        # The result keeps its storage alive, so the private spill
        # directory (and its shard files) exist under the base we chose.
        subdirs = list(tmp_path.iterdir())
        assert subdirs and any(any(d.iterdir()) for d in subdirs)
        assert result.dataset.X.column("age").shape[0] == result.dataset.n

    def test_resume_from_out_of_core_result(self):
        dataset = make_dataset(600, seed=5)
        prior = session(dataset).out_of_core(0.005, shard_rows=64).run()
        resumed = (
            session(dataset)
            .resume_from(prior)
            .run()
        )
        assert resumed.iterations == prior.iterations + 6
        assert resumed.dataset.n >= prior.dataset.n


class TestConfigValidation:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_resident_mb"):
            FroteConfig(max_resident_mb=0)
        with pytest.raises(ValueError, match="max_resident_mb"):
            FroteConfig(max_resident_mb=-1.5)

    def test_shard_rows_requires_budget(self):
        with pytest.raises(ValueError, match="max_resident_mb"):
            FroteConfig(shard_rows=1024)
        with pytest.raises(ValueError, match="shard_rows"):
            FroteConfig(max_resident_mb=8, shard_rows=0)

    def test_spill_dir_requires_budget(self):
        with pytest.raises(ValueError, match="max_resident_mb"):
            FroteConfig(spill_dir="/tmp")

    def test_defaults_stay_dense(self):
        assert FroteConfig().max_resident_mb is None


class TestMakeBuilder:
    def test_policy_selection(self, tmp_path):
        dataset = make_dataset(100, seed=9)
        dense_state = EditState(config=FroteConfig())
        assert dense_state.make_builder(dataset).policy is None
        ooc_state = EditState(
            config=FroteConfig(
                max_resident_mb=1.0, shard_rows=32, spill_dir=str(tmp_path)
            )
        )
        builder = ooc_state.make_builder(dataset)
        assert builder.policy is not None
        assert builder.policy.shard_rows == 32
        assert builder.policy.spill.path.parent == tmp_path
        assert isinstance(builder.snapshot().X, ShardedTable)

    def test_fresh_policy_per_builder(self):
        dataset = make_dataset(100, seed=9)
        state = EditState(config=FroteConfig(max_resident_mb=1.0))
        a = state.make_builder(dataset)
        b = state.make_builder(dataset)
        assert a.policy is not b.policy
        assert a.policy.spill.path != b.policy.spill.path


class TestSessionSugar:
    def test_out_of_core_configures(self):
        dataset = make_dataset(100, seed=11)
        state = (
            session(dataset)
            .out_of_core(16, shard_rows=256, spill_dir="/tmp")
            .build_state()
        )
        assert state.config.max_resident_mb == 16
        assert state.config.shard_rows == 256
        assert state.config.spill_dir == "/tmp"

    def test_out_of_core_does_not_clobber_prior_configure(self):
        """configure() merge semantics: a bare out_of_core(budget) keeps
        shard_rows/spill_dir set by an earlier call."""
        dataset = make_dataset(100, seed=11)
        state = (
            session(dataset)
            .configure(shard_rows=512, max_resident_mb=1, spill_dir="/tmp")
            .out_of_core(32)
            .build_state()
        )
        assert state.config.max_resident_mb == 32
        assert state.config.shard_rows == 512
        assert state.config.spill_dir == "/tmp"


class TestBlockedWholeTablePasses:
    """Whole-table passes must not densify a ShardedTable.

    ``TableModel.predict``, ``FeedbackRuleSet.assign`` and the encoder's
    blocked transform walk shard-aligned row blocks; pinned here with
    ``tracemalloc``: peak traced heap during each pass stays well below
    what materializing the dense feature matrix (or whole columns) would
    allocate, on a snapshot whose dense size is many times the resident
    budget.
    """

    def _sharded(self, n=16384, shard_rows=256):
        from repro.data.builder import DatasetBuilder
        from repro.data.shards import SpillPolicy

        dataset = make_dataset(n, seed=13)
        builder = DatasetBuilder.from_dataset(
            dataset, policy=SpillPolicy(0, shard_rows=shard_rows)
        )
        snap = builder.snapshot()
        assert isinstance(snap.X, ShardedTable)
        assert snap.X.storage_stats()["n_spilled"] > 0
        return dataset, snap, builder

    def _frs(self, dataset):
        from repro.rules.parser import parse_rule
        from repro.rules.ruleset import FeedbackRuleSet

        return FeedbackRuleSet(
            tuple(
                parse_rule(text, dataset.X.schema, dataset.label_names)
                for text in (
                    "age < 35 => approve",
                    "income < 40 AND marital = 'single' => deny",
                )
            )
        )

    @staticmethod
    def _traced_peak(fn):
        """Peak traced heap of a warmed run of ``fn``.

        The untraced warm-up call lets the spilled shards open their
        memmap handles — O(n_shards) metadata that is cached afterwards —
        so the traced pass measures the steady-state transients the
        blocked walk actually allocates.
        """
        import tracemalloc

        fn()
        tracemalloc.start()
        try:
            out = fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    def test_predict_streams_shard_blocks(self):
        from repro.models import LogisticRegression, make_algorithm

        dataset, snap, _ = self._sharded()
        model = make_algorithm(lambda: LogisticRegression(max_iter=50))(
            dataset.row_slice(0, 2048)
        )
        dense_matrix_bytes = snap.n * model.encoder_.n_features * 8
        proba, peak = self._traced_peak(lambda: model.predict_proba(snap.X))
        # Budget: the (n, n_classes) output + O(shard) block transients —
        # nowhere near the full encoded matrix a densifying pass allocates.
        assert peak < dense_matrix_bytes / 2
        np.testing.assert_allclose(
            proba, model.predict_proba(dataset.X), rtol=1e-9, atol=1e-12
        )

    def test_assign_and_coverage_stream_shard_blocks(self):
        dataset, snap, _ = self._sharded()
        frs = self._frs(dataset)
        dense_column_bytes = snap.n * len(dataset.X.schema.names) * 8
        assign, peak = self._traced_peak(lambda: frs.assign(snap.X))
        assert peak < dense_column_bytes / 2
        np.testing.assert_array_equal(assign, frs.assign(dataset.X))
        mask, peak = self._traced_peak(lambda: frs.coverage_mask(snap.X))
        assert peak < dense_column_bytes / 2
        np.testing.assert_array_equal(mask, frs.coverage_mask(dataset.X))

    def test_encoder_blocks_are_bounded_and_bit_identical(self):
        from repro.data.encoding import TabularEncoder

        dataset, snap, _ = self._sharded()
        encoder = TabularEncoder(standardize=True).fit(dataset.X)
        dense = encoder.transform(dataset.X)

        def consume():
            total = 0
            for start, stop, X in encoder.iter_transform_blocks(snap.X):
                np.testing.assert_array_equal(X, dense[start:stop])
                total += stop - start
            return total

        total, peak = self._traced_peak(consume)
        assert total == snap.n
        assert peak < dense.nbytes / 2
        # The full blocked transform still returns the identical matrix.
        np.testing.assert_array_equal(encoder.transform(snap.X), dense)

    def test_scaler_stats_identical_when_fit_on_sharded(self):
        from repro.data.encoding import TabularEncoder

        dataset, snap, _ = self._sharded(n=4096, shard_rows=128)
        dense_enc = TabularEncoder(standardize=True).fit(dataset.X)
        sharded_enc = TabularEncoder(standardize=True).fit(snap.X)
        np.testing.assert_array_equal(
            dense_enc._scaler.mean_, sharded_enc._scaler.mean_
        )
        np.testing.assert_array_equal(
            dense_enc._scaler.scale_, sharded_enc._scaler.scale_
        )
