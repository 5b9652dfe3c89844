"""Tests for the out-of-core sharded column storage."""

import gc

import numpy as np
import pytest

from repro.data import (
    Dataset,
    DatasetBuilder,
    ShardedArray,
    ShardedTable,
    SpillDir,
    SpillPolicy,
    Table,
    TableBuilder,
    make_schema,
    spill_policy_for,
)
from repro.data.evolution import SchemaDelta, migrate_table

SCHEMA = make_schema(numeric=["a", "b"], categorical={"c": ("x", "y", "z")})


def make_table(n, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        SCHEMA,
        {
            "a": rng.normal(size=n),
            "b": rng.uniform(size=n),
            "c": rng.integers(0, 3, size=n),
        },
    )


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed + 100)
    return Dataset(make_table(n, seed), rng.integers(0, 2, size=n), ("neg", "pos"))


def tiny_policy(budget_bytes=0, shard_rows=8):
    """A policy that spills everything sealed (budget 0) by default."""
    return SpillPolicy(budget_bytes, shard_rows=shard_rows)


class TestShardedArray:
    def test_append_and_view_roundtrip(self):
        arr = ShardedArray(np.int64, policy=tiny_policy())
        arr.append(np.arange(5))
        arr.append(np.arange(5, 30))
        np.testing.assert_array_equal(arr.view(), np.arange(30))
        assert arr.n == 30

    def test_append_straddles_shard_boundaries(self):
        """A single append spanning several shards lands intact."""
        arr = ShardedArray(np.float64, policy=tiny_policy(shard_rows=8))
        first = np.arange(5, dtype=np.float64)
        arr.append(first)
        straddle = np.arange(100, 137, dtype=np.float64)  # 5 -> 42 spans 5 shards
        arr.append(straddle)
        assert arr.n_shards == 6
        np.testing.assert_array_equal(arr.view(), np.concatenate([first, straddle]))

    def test_sealed_shards_spill_past_budget(self):
        policy = tiny_policy(budget_bytes=2 * 8 * 8, shard_rows=8)  # two shards
        arr = ShardedArray(np.int64, policy=policy)
        arr.append(np.arange(44))  # 6 shards; 5 full + sealed, tail unsealed
        assert arr.n_spilled == 3  # LRU keeps the 2 most recent sealed
        assert policy.resident_bytes <= policy.max_resident_bytes
        np.testing.assert_array_equal(arr.view(), np.arange(44))

    def test_reads_after_eviction_come_from_spill_files(self):
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=8))
        arr.append(np.arange(64))
        assert arr.n_spilled == 8  # everything sealed is spilled (budget 0)
        np.testing.assert_array_equal(arr.slice(3, 21), np.arange(3, 21))
        np.testing.assert_array_equal(
            arr.gather(np.array([0, 7, 8, 63, -1])), [0, 7, 8, 63, 63]
        )

    def test_slice_within_one_shard_is_zero_copy(self):
        policy = SpillPolicy(1 << 20, shard_rows=8)
        arr = ShardedArray(np.int64, policy=policy)
        arr.append(np.arange(16))
        view = arr.slice(8, 12)
        assert view.base is not None  # a view, not a copy
        assert not view.flags.writeable

    def test_view_is_read_only(self):
        arr = ShardedArray(np.float64, policy=tiny_policy())
        arr.append(np.zeros(20))
        with pytest.raises(ValueError):
            arr.view()[0] = 1.0

    def test_write_at_cannot_touch_committed(self):
        arr = ShardedArray(np.int64, policy=tiny_policy())
        arr.append(np.arange(4))
        with pytest.raises(ValueError, match="committed"):
            arr.write_at(2, np.array([9]))

    def test_write_at_then_set_length(self):
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=4))
        arr.append(np.arange(4))
        arr.write_at(4, np.array([7, 8]))
        assert arr.n == 4  # staged, not committed
        arr.set_length(6)
        np.testing.assert_array_equal(arr.view(), [0, 1, 2, 3, 7, 8])

    def test_staged_writes_overwritten_by_restage(self):
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=4))
        arr.append(np.arange(4))
        arr.write_at(4, np.array([7, 8, 9]))
        arr.write_at(4, np.array([5, 6]))  # reject path: overwrite staged
        arr.set_length(6)
        np.testing.assert_array_equal(arr.view(), [0, 1, 2, 3, 5, 6])

    def test_truncate_across_spilled_shard_reloads(self):
        """Rollback to mid-shard reloads the committed prefix from disk."""
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=8))
        arr.append(np.arange(64))
        assert arr.n_spilled == 8
        arr.truncate(21)  # boundary shard (index 2) was spilled
        assert arr.n == 21
        np.testing.assert_array_equal(arr.view(), np.arange(21))
        # New appends after the rollback land correctly.
        arr.append(np.arange(100, 120))
        np.testing.assert_array_equal(
            arr.view(), np.concatenate([np.arange(21), np.arange(100, 120)])
        )

    def test_truncate_at_exact_shard_boundary(self):
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=8))
        arr.append(np.arange(40))
        arr.truncate(16)
        np.testing.assert_array_equal(arr.view(), np.arange(16))
        arr.append(np.full(4, -1))
        np.testing.assert_array_equal(arr.view()[16:], [-1, -1, -1, -1])

    def test_truncate_bounds(self):
        arr = ShardedArray(np.int64, policy=tiny_policy())
        arr.append(np.arange(10))
        with pytest.raises(ValueError, match="truncate"):
            arr.truncate(11)

    def test_gather_out_of_range_raises(self):
        arr = ShardedArray(np.int64, policy=tiny_policy())
        arr.append(np.arange(10))
        with pytest.raises(IndexError):
            arr.gather(np.array([10]))
        with pytest.raises(IndexError):
            arr.gather(np.array([-11]))

    def test_gather_spilled_large_span_per_element_reads(self):
        """A sparse gather spanning a spilled shard uses per-element reads."""
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=1 << 14))
        arr.append(np.arange(1 << 15))
        assert arr.n_spilled == 2
        idx = np.array([0, (1 << 14) - 1, 1 << 14, (1 << 15) - 1])
        np.testing.assert_array_equal(arr.gather(idx), idx)

    def test_set_length_past_capacity_raises(self):
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=8))
        arr.append(np.arange(4))
        with pytest.raises(ValueError, match="capacity"):
            arr.set_length(9)

    def test_storage_stats(self):
        arr = ShardedArray(np.int64, policy=tiny_policy(shard_rows=8))
        arr.append(np.arange(20))
        stats = arr.storage_stats()
        assert stats["n_shards"] == 3
        assert stats["n_spilled"] == 2
        assert stats["spilled_bytes"] == 2 * 8 * 8


class TestSpillDir:
    def test_close_removes_directory(self):
        spill = SpillDir()
        path = spill.path
        assert path.exists()
        spill.close()
        assert not path.exists()
        assert spill.closed
        with pytest.raises(RuntimeError):
            spill.new_file()

    def test_garbage_collection_removes_directory(self):
        spill = SpillDir()
        path = spill.path
        del spill
        gc.collect()
        assert not path.exists()

    def test_spill_files_live_under_base(self, tmp_path):
        policy = SpillPolicy(0, shard_rows=4, spill=SpillDir(tmp_path))
        arr = ShardedArray(np.int64, policy=policy)
        arr.append(np.arange(16))
        assert any(tmp_path.iterdir())


class TestSpillPolicyConfig:
    def test_spill_policy_for_none_without_budget(self):
        class Cfg:
            max_resident_mb = None

        assert spill_policy_for(Cfg()) is None

    def test_spill_policy_for_reads_fields(self, tmp_path):
        class Cfg:
            max_resident_mb = 2.0
            shard_rows = 128
            spill_dir = str(tmp_path)

        policy = spill_policy_for(Cfg())
        assert policy.max_resident_bytes == 2 * 1024 * 1024
        assert policy.shard_rows == 128
        assert policy.spill.path.parent == tmp_path

    def test_invalid_budget_raises(self):
        with pytest.raises(ValueError, match="max_resident_bytes"):
            SpillPolicy(-1)
        with pytest.raises(ValueError, match="shard_rows"):
            SpillPolicy(0, shard_rows=0)


class TestShardedTable:
    def build(self, n=50, shard_rows=8, budget=0, seed=1):
        policy = SpillPolicy(budget, shard_rows=shard_rows)
        builder = TableBuilder.from_table(make_table(n, seed), policy=policy)
        return builder, builder.snapshot()

    def test_snapshot_type_and_columns(self):
        _, snap = self.build()
        assert isinstance(snap, ShardedTable)
        dense = make_table(50, 1)
        for name in SCHEMA.names:
            np.testing.assert_array_equal(snap.column(name), dense.column(name))

    def test_row_slice_take_loc_mask_row_parity(self):
        _, snap = self.build(60)
        dense = make_table(60, 1)
        np.testing.assert_array_equal(
            snap.row_slice(5, 23).column("a"), dense.row_slice(5, 23).column("a")
        )
        idx = np.array([0, 59, 17, 17, -1])
        for name in SCHEMA.names:
            np.testing.assert_array_equal(
                snap.take(idx).column(name), dense.take(idx).column(name)
            )
        mask = np.zeros(60, dtype=bool)
        mask[[3, 40, 59]] = True
        for name in SCHEMA.names:
            np.testing.assert_array_equal(
                snap.loc_mask(mask).column(name), dense.loc_mask(mask).column(name)
            )
        assert snap.row(13) == dense.row(13)
        assert snap.row(-2) == dense.row(-2)
        assert snap.row_decoded(47) == dense.row_decoded(47)
        np.testing.assert_array_equal(snap.decoded("c"), dense.decoded("c"))

    def test_snapshot_reads_after_eviction(self):
        """A snapshot taken before spills still reads correct bytes after."""
        policy = SpillPolicy(0, shard_rows=8)
        builder = TableBuilder(SCHEMA, policy=policy)
        first = make_table(30, 2)
        snap = builder.append(first)
        builder.append(make_table(100, 3))  # forces sealing + spilling
        assert builder.storage_stats()["n_spilled"] > 0
        for name in SCHEMA.names:
            np.testing.assert_array_equal(snap.column(name), first.column(name))

    def test_concat_and_with_column_fall_back_to_materialization(self):
        _, snap = self.build(20)
        dense = make_table(20, 1)
        both = Table.concat([snap, dense])
        assert both.n_rows == 40
        replaced = snap.with_column("a", np.zeros(20))
        assert float(replaced.column("a").sum()) == 0.0

    def test_row_out_of_range(self):
        _, snap = self.build(10)
        with pytest.raises(IndexError):
            snap.row(10)

    def test_unknown_column_keyerror(self):
        _, snap = self.build(10)
        with pytest.raises(KeyError, match="nope"):
            snap.column("nope")


class TestBlockwiseCopies:
    """A sharded table is copied and migrated one row block at a time: no
    whole column of it is ever materialized."""

    @pytest.fixture
    def sharded(self, monkeypatch):
        policy = SpillPolicy(64, shard_rows=8)
        snap = TableBuilder.from_table(make_table(50, 3), policy=policy).snapshot()

        def whole_column(self, name):
            raise AssertionError(f"column {name!r} materialized")

        monkeypatch.setattr(ShardedTable, "column", whole_column)
        return snap

    @staticmethod
    def _columns(table):
        return {name: table.row_slice(0, table.n_rows).column(name) for name in table.schema.names}

    def test_from_table_copies_blocks(self, sharded):
        copy = TableBuilder.from_table(sharded, policy=SpillPolicy(0, shard_rows=16)).snapshot()
        assert copy.n_rows == 50 and copy.shard_rows == 16
        for name, col in self._columns(copy).items():
            np.testing.assert_array_equal(col, make_table(50, 3).column(name))

    @pytest.mark.parametrize(
        "delta",
        [
            SchemaDelta.rename_column("a", "a2"),
            SchemaDelta.drop_column("b"),
            SchemaDelta.add_column("d", kind="numeric", fill=2.5),
            SchemaDelta.retype_column("c", kind="categorical", categories=("p", "q"),
                                      mapping={"x": "p", "y": "q", "z": "q"}),
        ],
        ids=["rename", "drop", "add", "retype"],
    )
    def test_migration_migrates_blocks(self, sharded, delta):
        migrated = delta.apply_to_table(sharded)
        dense = delta.apply_to_table(make_table(50, 3))
        assert isinstance(migrated, ShardedTable)
        assert migrated.schema == dense.schema and migrated.shard_rows == 8
        # Every sealed shard went to its spill file as it filled.
        assert migrated.storage_stats()["n_spilled"] == len(dense.schema.names) * (50 // 8)
        got = self._columns(migrated)
        for name in dense.schema.names:
            np.testing.assert_array_equal(got[name], dense.column(name))

    def test_deltas_migrate_in_one_pass(self, sharded, monkeypatch):
        """Every delta runs over a block before the next block is read, so
        a sequence of deltas writes one migrated table, not one per delta."""
        deltas = [
            SchemaDelta.rename_column("a", "a2"),
            SchemaDelta.add_column("d", kind="numeric", fill=2.5),
            SchemaDelta.drop_column("b"),
        ]
        builders = []
        monkeypatch.setattr(TableBuilder, "snapshot", _counted(TableBuilder.snapshot, builders))
        migrated = migrate_table(sharded, deltas)
        dense = migrate_table(make_table(50, 3), deltas)
        assert len(builders) == 1
        assert migrated.schema == dense.schema
        got = self._columns(migrated)
        for name in dense.schema.names:
            np.testing.assert_array_equal(got[name], dense.column(name))


def _counted(method, calls):
    def wrapper(self, *args, **kwargs):
        calls.append(self)
        return method(self, *args, **kwargs)

    return wrapper


class TestBuilderCheckpointRollback:
    def test_rollback_across_spilled_shard(self):
        """checkpoint -> grow past spills -> rollback -> bit-exact state."""
        policy = SpillPolicy(0, shard_rows=8)
        builder = DatasetBuilder.from_dataset(make_dataset(30, 5), policy=policy)
        token = builder.checkpoint()
        before = builder.snapshot()
        kept = {n: before.X.column(n).copy() for n in SCHEMA.names}
        kept_y = before.y.copy()
        builder.append(make_dataset(100, 6).X, make_dataset(100, 6).y)
        assert builder.storage_stats()["n_spilled"] > 0
        builder.rollback(token)
        assert builder.n_rows == 30
        after = builder.snapshot()
        for name in SCHEMA.names:
            np.testing.assert_array_equal(after.X.column(name), kept[name])
        np.testing.assert_array_equal(after.y, kept_y)
        # The builder keeps working after the rollback.
        grown = builder.append(make_dataset(12, 7).X, make_dataset(12, 7).y)
        assert grown.n == 42

    def test_dense_rollback_matches(self):
        builder = DatasetBuilder.from_dataset(make_dataset(30, 5))
        token = builder.checkpoint()
        builder.append(make_dataset(10, 6).X, make_dataset(10, 6).y)
        builder.rollback(token)
        assert builder.n_rows == 30


class TestShardedVsDenseParity:
    """Randomized bit-exact parity of sharded and dense TableBuilders."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_op_sequence(self, seed):
        rng = np.random.default_rng(seed)
        policy = SpillPolicy(
            int(rng.integers(0, 400)), shard_rows=int(rng.integers(3, 17))
        )
        dense = TableBuilder.from_table(make_table(10, seed))
        sharded = TableBuilder.from_table(make_table(10, seed), policy=policy)
        tokens = []
        for step in range(40):
            op = rng.integers(0, 5)
            if op == 0:  # append
                batch = make_table(int(rng.integers(1, 30)), seed * 100 + step)
                dense.append(batch)
                sharded.append(batch)
            elif op == 1:  # stage then discard (reject path)
                batch = make_table(int(rng.integers(1, 20)), seed * 200 + step)
                d_stage = dense.stage(batch)
                s_stage = sharded.stage(batch)
                for name in SCHEMA.names:
                    np.testing.assert_array_equal(
                        np.asarray(s_stage.column(name)), d_stage.column(name)
                    )
            elif op == 2:  # stage then commit
                batch = make_table(int(rng.integers(1, 20)), seed * 300 + step)
                d_stage = dense.stage(batch)
                s_stage = sharded.stage(batch)
                dense.commit(d_stage.n_rows)
                sharded.commit(s_stage.n_rows)
            elif op == 3:  # checkpoint / maybe rollback later
                tokens.append(dense.checkpoint())
                assert sharded.checkpoint() == tokens[-1]
            elif op == 4 and tokens:  # rollback to a random checkpoint
                token = tokens.pop(int(rng.integers(0, len(tokens))))
                dense.rollback(token)
                sharded.rollback(token)
                tokens = [t for t in tokens if t <= token]
            assert dense.n_rows == sharded.n_rows
        d_snap, s_snap = dense.snapshot(), sharded.snapshot()
        for name in SCHEMA.names:
            np.testing.assert_array_equal(
                np.asarray(s_snap.column(name)), d_snap.column(name)
            )
        if policy.max_resident_bytes < 400:
            assert policy.resident_bytes <= max(policy.max_resident_bytes, 0)
