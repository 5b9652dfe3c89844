"""Appendable table and dataset builders for the incremental compute core.

:class:`Table` and :class:`Dataset` are immutable; the edit loop used to
grow the active dataset with :meth:`Table.concat`, copying every column on
every accepted batch — O(n) per batch, quadratic over a long session.
The builders here keep one *growable* buffer per column with amortized
capacity doubling, so appends cost O(batch) and a long edit session costs
O(total rows) overall.

Two-phase mutation matches the accept/reject shape of the edit loop:

* :meth:`TableBuilder.stage` writes rows *past* the committed length and
  returns a zero-copy snapshot of committed + staged rows — the candidate
  dataset.  Staged rows are simply overwritten by the next ``stage`` call
  if the candidate is rejected; nothing needs rolling back.
* :meth:`TableBuilder.commit` advances the committed length, making the
  staged rows permanent.

Snapshots are :class:`Table` views over the committed prefix of the
buffers (read-only, so accidental mutation of shared storage raises).
Committed rows are never overwritten and buffer growth reallocates rather
than moving them, so every snapshot ever returned stays valid forever.

Builders are storage-polymorphic: by default each column is a dense
in-RAM :class:`GrowableArray`; constructed with a
:class:`~repro.data.shards.SpillPolicy` they shard every column into
fixed-size chunks that spill to memory-mapped files past a resident
budget (:class:`~repro.data.shards.ShardedArray`), and snapshots become
shard-aware :class:`~repro.data.shards.ShardedTable` views — the
out-of-core path for active datasets larger than RAM.  Labels stay in a
dense buffer either way: one machine word per row is the documented
resident floor (the evaluation layer needs the full label vector).
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.data.shards import ShardedArray, ShardedTable, SpillPolicy, row_block_spans
from repro.data.table import Table

__all__ = ["GrowableArray", "TableBuilder", "DatasetBuilder", "append_rows_2d"]

#: Smallest buffer allocation; below this, doubling is pointless churn.
_MIN_CAPACITY = 64


def append_rows_2d(buf: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """Write ``rows`` at ``buf[n:]``, doubling capacity as needed.

    The single 2-D growth policy shared by the appendable neighbour
    indices: rows ``[0, n)`` are the live prefix and are preserved (a
    reallocation copies them into the new buffer; the old buffer is left
    untouched, so existing views of it stay valid).  Returns the buffer
    holding the result — the same object when capacity sufficed, a fresh
    one otherwise.  The caller owns the new live length ``n + len(rows)``.
    """
    need = n + rows.shape[0]
    if need > buf.shape[0]:
        cap = max(need, 2 * buf.shape[0])
        grown = np.empty((cap, buf.shape[1]), dtype=buf.dtype)
        grown[:n] = buf[:n]
        buf = grown
    buf[n:need] = rows
    return buf


class GrowableArray:
    """A 1-D array with amortized-O(1) appends via capacity doubling.

    Parameters
    ----------
    dtype:
        Element dtype of the buffer.
    initial:
        Optional initial contents (copied once).

    Notes
    -----
    ``view(n)`` returns a read-only zero-copy view of the first ``n``
    elements.  Growth allocates a fresh buffer and copies the live prefix,
    so previously returned views keep referencing the old buffer — still
    valid, just no longer shared with future appends.
    """

    __slots__ = ("_buf", "_n")

    def __init__(self, dtype: np.dtype, initial: np.ndarray | None = None) -> None:
        if initial is not None:
            initial = np.asarray(initial, dtype=dtype)
            cap = max(_MIN_CAPACITY, initial.shape[0])
            self._buf = np.empty(cap, dtype=dtype)
            self._buf[: initial.shape[0]] = initial
            self._n = int(initial.shape[0])
        else:
            self._buf = np.empty(_MIN_CAPACITY, dtype=dtype)
            self._n = 0

    @property
    def n(self) -> int:
        """Number of live elements."""
        return self._n

    def _ensure(self, extra: int) -> None:
        need = self._n + extra
        cap = self._buf.shape[0]
        if need <= cap:
            return
        new_cap = max(need, 2 * cap)
        buf = np.empty(new_cap, dtype=self._buf.dtype)
        buf[: self._n] = self._buf[: self._n]
        self._buf = buf

    def write_at(self, start: int, values: np.ndarray) -> None:
        """Write ``values`` at ``start`` without moving the live length.

        ``start`` must not precede the live length (committed elements are
        immutable); the buffer grows as needed.
        """
        values = np.asarray(values, dtype=self._buf.dtype)
        if start < self._n:
            raise ValueError(
                f"cannot overwrite committed elements (start={start} < n={self._n})"
            )
        need = start + values.shape[0]
        if need > self._buf.shape[0]:
            self._ensure(need - self._n)
        self._buf[start : start + values.shape[0]] = values

    def append(self, values: np.ndarray) -> None:
        """Append ``values`` and advance the live length."""
        values = np.asarray(values, dtype=self._buf.dtype)
        self._ensure(values.shape[0])
        self._buf[self._n : self._n + values.shape[0]] = values
        self._n += values.shape[0]

    def set_length(self, n: int) -> None:
        """Advance the live length to ``n`` (after :meth:`write_at`)."""
        if n < self._n:
            raise ValueError(f"cannot shrink committed length {self._n} to {n}")
        if n > self._buf.shape[0]:
            raise ValueError(f"length {n} exceeds capacity {self._buf.shape[0]}")
        self._n = n

    def truncate(self, n: int) -> None:
        """Shrink the live length to ``n`` in O(1) (rollback of appends).

        The caller owns the invariant that no consumer still relies on a
        view longer than ``n`` — elements past ``n`` may be overwritten
        by later appends.  The builders never truncate (their staged rows
        are outside the committed length by construction); this exists
        for explicit checkpoint/rollback users such as the partial-update
        models.
        """
        if not 0 <= n <= self._n:
            raise ValueError(f"cannot truncate length {self._n} to {n}")
        self._n = n

    def view(self, n: int | None = None) -> np.ndarray:
        """Read-only zero-copy view of the first ``n`` (default: live) elements."""
        if n is None:
            n = self._n
        if n > self._buf.shape[0]:
            raise ValueError(f"view of {n} elements exceeds capacity")
        v = self._buf[:n]
        v.flags.writeable = False
        return v


class TableBuilder:
    """Append-only :class:`Table` accumulator with O(batch) amortized appends.

    Parameters
    ----------
    schema:
        Column layout every appended table must match.
    policy:
        Optional :class:`~repro.data.shards.SpillPolicy`; when given,
        columns are sharded and may spill to memory-mapped files past
        the policy's resident budget, and snapshots are shard-aware
        :class:`~repro.data.shards.ShardedTable` views.  ``None``
        (default) keeps the dense in-RAM storage, bit-for-bit as before.

    Examples
    --------
    >>> builder = TableBuilder.from_table(base)      # doctest: +SKIP
    >>> candidate = builder.stage(batch)             # committed + staged view
    >>> builder.commit(candidate.n_rows)             # accept ...
    >>> # ... or just call stage() again to discard the staged rows.
    """

    def __init__(self, schema: Schema, *, policy: SpillPolicy | None = None) -> None:
        self.schema = schema
        self.policy = policy
        self._columns: dict[str, GrowableArray | ShardedArray] = {
            spec.name: self._new_column(
                np.dtype(np.float64 if spec.is_numeric else np.int64)
            )
            for spec in schema
        }
        self._n = 0

    def _new_column(
        self, dtype: np.dtype, initial: np.ndarray | None = None
    ) -> "GrowableArray | ShardedArray":
        if self.policy is not None:
            return ShardedArray(dtype, policy=self.policy, initial=initial)
        return GrowableArray(dtype, initial=initial)

    @classmethod
    def from_table(
        cls, table: Table, *, policy: SpillPolicy | None = None
    ) -> "TableBuilder":
        """Seed a builder with ``table``'s rows (one copy, then appends are
        cheap).  A :class:`~repro.data.shards.ShardedTable` is copied one
        row block at a time, never as whole columns."""
        builder = cls(table.schema, policy=policy)
        if isinstance(table, ShardedTable):
            for start, stop in row_block_spans(table, advise_cold=True):
                builder.append(table.row_slice(start, stop))
            return builder
        for spec in table.schema:
            arr = table.column(spec.name)
            builder._columns[spec.name] = builder._new_column(arr.dtype, initial=arr)
        builder._n = table.n_rows
        return builder

    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Committed row count."""
        return self._n

    def _check_schema(self, table: Table) -> None:
        if table.schema != self.schema:
            raise ValueError("cannot append a table with a different schema")

    def stage(self, table: Table) -> Table:
        """Write ``table``'s rows past the committed length; return the
        combined snapshot *without* committing.

        Repeated calls overwrite each other's staged rows, which is exactly
        the reject path of the edit loop: a rejected candidate costs
        nothing to discard.
        """
        self._check_schema(table)
        start = self._n
        for name, col in self._columns.items():
            col.write_at(start, table.column(name))
        return self._snapshot(start + table.n_rows)

    def commit(self, n_rows: int) -> None:
        """Make rows up to ``n_rows`` (from a prior :meth:`stage`) permanent."""
        for col in self._columns.values():
            col.set_length(n_rows)
        self._n = n_rows

    def append(self, table: Table) -> Table:
        """Stage and commit in one step; returns the new committed snapshot."""
        snap = self.stage(table)
        self.commit(snap.n_rows)
        return snap

    def snapshot(self) -> Table:
        """Zero-copy read-only :class:`Table` of the committed rows."""
        return self._snapshot(self._n)

    def _snapshot(self, n: int) -> Table:
        if self.policy is not None:
            return ShardedTable._wrap_sharded(self.schema, self._columns, n)
        cols = {name: col.view(n) for name, col in self._columns.items()}
        return Table._wrap(self.schema, cols, n)

    # ------------------------------------------------------------------ #
    def checkpoint(self) -> int:
        """Token for :meth:`rollback`: the current committed length."""
        return self._n

    def rollback(self, token: int) -> None:
        """Shrink back to a :meth:`checkpoint` (O(1) dense; sharded
        storage unseals — and reloads, if spilled — the boundary shard).

        Same caveat as :meth:`GrowableArray.truncate`: the caller owns
        the invariant that no consumer still relies on a snapshot longer
        than the checkpoint.
        """
        for col in self._columns.values():
            col.truncate(token)
        self._n = token

    def advise_cold(self) -> None:
        """Drop spilled shards' pages from the OS page cache (no-op dense)."""
        if self.policy is not None:
            for col in self._columns.values():
                col.advise_cold()

    def storage_stats(self) -> dict[str, int]:
        """Aggregate shard statistics (all zeros for dense storage)."""
        total = {"n_shards": 0, "n_spilled": 0, "heap_bytes": 0, "spilled_bytes": 0}
        if self.policy is not None:
            for col in self._columns.values():
                for key, value in col.storage_stats().items():
                    total[key] += value
        return total


class DatasetBuilder:
    """Append-only :class:`Dataset` accumulator: a :class:`TableBuilder`
    plus a growable label buffer.

    The edit loop's active dataset lives in one of these; accepted batches
    append in O(batch) and the exposed :class:`Dataset` snapshots are
    zero-copy views (see the module docstring for the staging contract).
    """

    def __init__(
        self,
        schema: Schema,
        label_names: tuple[str, ...],
        *,
        policy: SpillPolicy | None = None,
    ) -> None:
        self.tables = TableBuilder(schema, policy=policy)
        self.label_names = tuple(label_names)
        # Labels stay dense even under a spill policy: the evaluation
        # layer consumes the full vector and one int64 per row is the
        # documented resident floor of the out-of-core path.
        self._y = GrowableArray(np.int64)

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, *, policy: SpillPolicy | None = None
    ) -> "DatasetBuilder":
        """Seed a builder with ``dataset``'s rows (one copy)."""
        builder = cls(dataset.X.schema, dataset.label_names, policy=policy)
        builder.tables = TableBuilder.from_table(dataset.X, policy=policy)
        builder._y = GrowableArray(np.int64, initial=dataset.y)
        return builder

    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        """Committed row count."""
        return self.tables.n_rows

    def stage(self, table: Table, labels: np.ndarray) -> Dataset:
        """Stage a batch; return the committed + staged :class:`Dataset` view."""
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape[0] != table.n_rows:
            raise ValueError(
                f"batch has {table.n_rows} rows but {labels.shape[0]} labels"
            )
        X = self.tables.stage(table)
        self._y.write_at(self.tables.n_rows, labels)
        return Dataset._from_trusted(X, self._y.view(X.n_rows), self.label_names)

    def commit(self, n_rows: int) -> None:
        """Make rows up to ``n_rows`` (from a prior :meth:`stage`) permanent."""
        self.tables.commit(n_rows)
        self._y.set_length(n_rows)

    def append(self, table: Table, labels: np.ndarray) -> Dataset:
        """Stage and commit in one step; returns the new committed snapshot."""
        snap = self.stage(table, labels)
        self.commit(snap.n)
        return snap

    def snapshot(self) -> Dataset:
        """Zero-copy read-only :class:`Dataset` of the committed rows."""
        n = self.tables.n_rows
        return Dataset._from_trusted(
            self.tables.snapshot(), self._y.view(n), self.label_names
        )

    # ------------------------------------------------------------------ #
    @property
    def policy(self) -> SpillPolicy | None:
        """The spill policy the feature columns were built with."""
        return self.tables.policy

    def checkpoint(self) -> int:
        """Token for :meth:`rollback`: the current committed length."""
        return self.tables.checkpoint()

    def rollback(self, token: int) -> None:
        """Shrink back to a :meth:`checkpoint` (see
        :meth:`TableBuilder.rollback` for the view-invalidation caveat)."""
        self.tables.rollback(token)
        self._y.truncate(token)

    def advise_cold(self) -> None:
        """Drop spilled shards' pages from the OS page cache (no-op dense)."""
        self.tables.advise_cold()

    def storage_stats(self) -> dict[str, int]:
        """Aggregate shard statistics of the feature columns."""
        return self.tables.storage_stats()
