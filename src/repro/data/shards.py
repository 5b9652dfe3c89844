"""Out-of-core sharded column storage: chunked buffers that spill to disk.

The append builders of :mod:`repro.data.builder` keep one growable buffer
per column, which is perfect until the active dataset outgrows RAM — the
ROADMAP's beyond-RAM workload class.  This module shards those buffers
into fixed-size chunks (:class:`ShardedArray`) whose *sealed* chunks —
fully below the committed length, hence immutable — are tracked in an LRU
resident set bounded by a byte budget (:class:`SpillPolicy`).  Chunks
evicted from the resident set are written once to a spill file under a
:class:`SpillDir` and re-served through read-only ``numpy.memmap`` views,
so reads of cold data stream pages through the OS cache instead of
occupying heap.

Contract parity with :class:`~repro.data.builder.GrowableArray`:

* committed rows are immutable and every committed-prefix view ever
  returned stays valid (spill files are written once per seal and never
  rewritten in place; re-spills after a rollback go to a *fresh* file so
  open memory maps keep reading the bytes they always had);
* ``write_at`` may only target rows at or past the committed length, so a
  sealed shard is never written again — staged rows always land in
  unsealed heap shards;
* ``truncate`` (checkpoint/rollback) may unseal the boundary shard,
  reloading it from its spill file into a writable heap chunk.

:class:`ShardedTable` is the snapshot view the builders hand out: a
:class:`~repro.data.table.Table` whose row-oriented accessors
(``row_slice``, ``take``, ``loc_mask``, ``row``) read only the shards they
overlap, while ``column`` stays available as the dense escape hatch
(materializes one column — correct everywhere, resident-set-friendly
nowhere).

Nothing here changes the default path: builders constructed without a
:class:`SpillPolicy` use the dense :class:`GrowableArray` storage
bit-for-bit as before.  The policy is selected by
``FroteConfig(max_resident_mb=...)`` / ``EditSession.out_of_core(...)``.
"""

from __future__ import annotations

import itertools
import mmap
import os
import shutil
import tempfile
import weakref
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table

__all__ = [
    "DEFAULT_SHARD_ROWS",
    "SpillDir",
    "SpillPolicy",
    "ShardedArray",
    "ShardedTable",
    "spill_policy_for",
]

#: Rows per shard unless the policy overrides it.  At 8 bytes per element
#: this is 512 KiB per numeric shard — large enough that per-shard Python
#: overhead vanishes, small enough that the LRU has real granularity.
DEFAULT_SHARD_ROWS = 65536

_MB = 1024 * 1024


class SpillDir:
    """Owns the directory holding a builder's shard spill files.

    Parameters
    ----------
    base:
        Parent directory for the spill directory; ``None`` uses the
        platform temp dir.

    Notes
    -----
    The directory is deleted when the :class:`SpillDir` is garbage
    collected or explicitly :meth:`close` d.  Shards hold a reference to
    their policy (which holds the :class:`SpillDir`), so spill files
    outlive every snapshot that can still read them.
    """

    def __init__(self, base: str | os.PathLike | None = None) -> None:
        self.path = Path(
            tempfile.mkdtemp(prefix="repro-spill-", dir=None if base is None else str(base))
        )
        self._count = itertools.count()
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self.path), True
        )

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def new_file(self, hint: str = "shard") -> Path:
        """Reserve a fresh spill-file path (files are written exactly once)."""
        if self.closed:
            raise RuntimeError("SpillDir is closed")
        return self.path / f"{next(self._count):06d}-{hint}.bin"

    def close(self) -> None:
        """Delete the spill directory now instead of at collection time."""
        self._finalizer()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"SpillDir({str(self.path)!r}, {state})"


class _Shard:
    """One fixed-size chunk of a :class:`ShardedArray`.

    A shard is in exactly one of three states:

    * **heap, unsealed** — a writable array; the tail of the column and
      any staged rows live here;
    * **heap, sealed** — immutable, counted against the policy's resident
      budget, eligible for eviction;
    * **spilled** — the heap copy is dropped; reads go through a lazily
      opened read-only ``numpy.memmap`` of the spill file.
    """

    __slots__ = ("dtype", "rows", "heap", "path", "sealed", "_mm", "__weakref__")

    def __init__(self, dtype: np.dtype, rows: int) -> None:
        self.dtype = dtype
        self.rows = rows
        self.heap: np.ndarray | None = np.empty(rows, dtype=dtype)
        self.path: Path | None = None
        self.sealed = False
        self._mm: np.memmap | None = None

    @property
    def nbytes(self) -> int:
        return self.rows * self.dtype.itemsize

    @property
    def spilled(self) -> bool:
        return self.heap is None

    def read(self) -> np.ndarray:
        """Read-only view of the shard's data (heap if resident, else memmap)."""
        if self.heap is not None:
            view = self.heap[:]
            view.flags.writeable = False
            return view
        if self._mm is None:
            self._mm = np.memmap(
                self.path, dtype=self.dtype, mode="r", shape=(self.rows,)
            )
            # Random access is the common read pattern (gathers, row
            # slices); without this the kernel's fault-around readahead
            # pulls a cluster of pages per touched row and a sparse
            # gather can fault in tens of MB it never reads.
            if hasattr(mmap, "MADV_RANDOM"):
                try:
                    self._mm._mmap.madvise(mmap.MADV_RANDOM)  # type: ignore[attr-defined]
                except (AttributeError, OSError):  # pragma: no cover
                    pass
        return self._mm

    def read_range(self, lo: int, hi: int) -> np.ndarray:
        """Elements ``[lo, hi)`` for a caller that will copy them.

        Heap shards and already-mapped spilled shards serve a view;
        a spilled shard with no mapping open is read with ``os.pread``
        instead of creating one — the copying read paths (multi-shard
        slices, full-column materialization) would otherwise accumulate
        one cached mapping per spilled shard, walking a beyond-RAM
        dataset straight into ``vm.max_map_count``.
        """
        if self.heap is not None:
            return self.heap[lo:hi]
        if self._mm is not None:
            return self._mm[lo:hi]
        item = self.dtype.itemsize
        fd = os.open(self.path, os.O_RDONLY)
        try:
            buf = os.pread(fd, (hi - lo) * item, lo * item)
        finally:
            os.close(fd)
        return np.frombuffer(buf, dtype=self.dtype)

    def gather_local(self, idx: np.ndarray) -> np.ndarray:
        """Elements at shard-local indices ``idx`` (sorted or not).

        Heap shards fancy-index directly.  Spilled shards read via
        ``os.pread`` instead of the mapping: faulting mapped pages costs
        a fault-around cluster (~16 pages) per touched row regardless of
        ``MADV_RANDOM``, so a sparse gather through the memmap would
        inflate RSS by orders of magnitude over the bytes actually
        needed.  Runs that span a small range coalesce into one read.
        """
        if self.heap is not None:
            return self.heap[idx]
        item = self.dtype.itemsize
        lo, hi = int(idx.min()), int(idx.max())
        span = hi - lo + 1
        fd = os.open(self.path, os.O_RDONLY)
        try:
            if span * item <= max(idx.shape[0] * item * 8, 1 << 16):
                buf = os.pread(fd, span * item, lo * item)
                return np.frombuffer(buf, dtype=self.dtype)[idx - lo]
            out = np.empty(idx.shape[0], dtype=self.dtype)
            for j, i in enumerate(idx):
                out[j] = np.frombuffer(
                    os.pread(fd, item, int(i) * item), dtype=self.dtype
                )[0]
            return out
        finally:
            os.close(fd)

    def spill(self, spilldir: SpillDir) -> None:
        """Write the heap copy to a fresh spill file and drop it.

        Always a fresh file: a shard re-sealed after a rollback may have
        different bytes than its previous spill, and rewriting in place
        would change (or, mid-truncate, SIGBUS) views served from the old
        mapping.  The stale file is unlinked — open maps keep the inode.
        """
        assert self.heap is not None and self.sealed
        path = spilldir.new_file()
        self.heap.tofile(path)
        self._forget_file()
        self.path = path
        self.heap = None

    def unseal(self, *, reload: bool) -> None:
        """Back out of the sealed state (rollback across this shard).

        ``reload`` pulls the spilled bytes back into a writable heap
        array (the shard still holds committed rows); without it the
        shard's contents are dead and a blank heap chunk suffices.
        """
        if self.heap is None:
            heap = np.empty(self.rows, dtype=self.dtype)
            if reload:
                heap[:] = np.fromfile(self.path, dtype=self.dtype, count=self.rows)
            self.heap = heap
        self._forget_file()
        self.sealed = False

    def _forget_file(self) -> None:
        self._mm = None
        if self.path is not None:
            try:
                os.unlink(self.path)
            except OSError:
                pass
            self.path = None

    def advise_cold(self) -> None:
        """Tell the OS the mapped pages won't be needed (drops them from RSS)."""
        if self._mm is None or not hasattr(mmap, "MADV_DONTNEED"):
            return
        try:
            self._mm._mmap.madvise(mmap.MADV_DONTNEED)  # type: ignore[attr-defined]
        except (AttributeError, OSError):  # pragma: no cover - platform-dependent
            pass


class SpillPolicy:
    """Sharding and residency policy shared by one builder's columns.

    Parameters
    ----------
    max_resident_bytes:
        Byte budget for the LRU set of *sealed* heap shards, across every
        :class:`ShardedArray` sharing this policy.  Unsealed tail shards
        (the working set being appended to) and the spill machinery are
        outside the budget by design.
    shard_rows:
        Rows per shard (:data:`DEFAULT_SHARD_ROWS` when ``None``).
    spill:
        Spill-file directory; a fresh private :class:`SpillDir` when
        ``None``.
    """

    def __init__(
        self,
        max_resident_bytes: int,
        *,
        shard_rows: int | None = None,
        spill: SpillDir | None = None,
    ) -> None:
        if max_resident_bytes < 0:
            raise ValueError(
                f"max_resident_bytes must be >= 0, got {max_resident_bytes}"
            )
        rows = DEFAULT_SHARD_ROWS if shard_rows is None else int(shard_rows)
        if rows < 1:
            raise ValueError(f"shard_rows must be >= 1, got {rows}")
        self.max_resident_bytes = int(max_resident_bytes)
        self.shard_rows = rows
        self.spill = spill if spill is not None else SpillDir()
        self.spill_count = 0
        self._lru: OrderedDict[_Shard, int] = OrderedDict()
        self._resident_bytes = 0

    @classmethod
    def from_mb(cls, max_resident_mb: float, **kwargs) -> "SpillPolicy":
        """Budget given in MiB (the :class:`FroteConfig` unit)."""
        return cls(int(max_resident_mb * _MB), **kwargs)

    @property
    def resident_bytes(self) -> int:
        """Heap bytes currently held by sealed shards in the LRU set."""
        return self._resident_bytes

    # ------------------------------------------------------------------ #
    def note_sealed(self, shard: _Shard) -> None:
        """Admit a freshly sealed shard and evict past the budget."""
        self._lru[shard] = shard.nbytes
        self._resident_bytes += shard.nbytes
        while self._resident_bytes > self.max_resident_bytes and self._lru:
            victim, nbytes = self._lru.popitem(last=False)
            self._resident_bytes -= nbytes
            victim.spill(self.spill)
            self.spill_count += 1

    def touch(self, shard: _Shard) -> None:
        """Mark a resident shard recently used (no-op for spilled shards)."""
        if shard in self._lru:
            self._lru.move_to_end(shard)

    def forget(self, shard: _Shard) -> None:
        """Drop a shard from the resident set (it is being unsealed)."""
        nbytes = self._lru.pop(shard, None)
        if nbytes is not None:
            self._resident_bytes -= nbytes


def spill_policy_for(config) -> SpillPolicy | None:
    """Build the spill policy a config asks for (``None`` = dense path).

    Duck-typed on ``max_resident_mb`` / ``shard_rows`` / ``spill_dir`` so
    the data layer never imports :class:`~repro.core.config.FroteConfig`.
    Each call returns a fresh policy with a private :class:`SpillDir`:
    builders must not share residency accounting across rebuilds, or
    dropped shards would pin the budget forever.
    """
    mb = getattr(config, "max_resident_mb", None)
    if mb is None:
        return None
    base = getattr(config, "spill_dir", None)
    return SpillPolicy.from_mb(
        mb,
        shard_rows=getattr(config, "shard_rows", None),
        spill=SpillDir(base) if base is not None else None,
    )


class ShardedArray:
    """A 1-D append-only array stored as fixed-size spillable shards.

    Drop-in storage replacement for
    :class:`~repro.data.builder.GrowableArray` behind the append
    builders: the mutation API (``write_at`` / ``append`` /
    ``set_length`` / ``truncate``) is identical, while reads go through
    shard-aware accessors (:meth:`slice`, :meth:`gather`, :meth:`view`)
    so consumers touch only the chunks they need.

    Parameters
    ----------
    dtype:
        Element dtype.
    policy:
        Shared :class:`SpillPolicy` (sharding width + resident budget).
    initial:
        Optional initial contents (copied into shards once).
    """

    __slots__ = ("dtype", "policy", "_shards", "_n", "_sealed_upto")

    def __init__(
        self,
        dtype: np.dtype,
        *,
        policy: SpillPolicy,
        initial: np.ndarray | None = None,
    ) -> None:
        self.dtype = np.dtype(dtype)
        self.policy = policy
        self._shards: list[_Shard] = []
        self._n = 0
        self._sealed_upto = 0  # shards [0, _sealed_upto) are sealed
        if initial is not None:
            self.append(np.asarray(initial, dtype=self.dtype))

    # ------------------------------------------------------------------ #
    @property
    def n(self) -> int:
        """Number of live (committed) elements."""
        return self._n

    @property
    def shard_rows(self) -> int:
        return self.policy.shard_rows

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def n_spilled(self) -> int:
        return sum(1 for s in self._shards if s.spilled)

    @property
    def capacity(self) -> int:
        return len(self._shards) * self.shard_rows

    def storage_stats(self) -> dict[str, int]:
        """Shard counts and byte totals, for tests and the out-of-core guard."""
        heap = sum(s.nbytes for s in self._shards if not s.spilled)
        spilled = sum(s.nbytes for s in self._shards if s.spilled)
        return {
            "n_shards": self.n_shards,
            "n_spilled": self.n_spilled,
            "heap_bytes": heap,
            "spilled_bytes": spilled,
        }

    # ------------------------------------------------------------------ #
    # Mutation (GrowableArray-compatible).
    def _ensure_capacity(self, rows: int) -> None:
        while self.capacity < rows:
            self._shards.append(_Shard(self.dtype, self.shard_rows))

    def write_at(self, start: int, values: np.ndarray) -> None:
        """Write ``values`` at ``start`` without moving the live length.

        ``start`` must not precede the live length (committed elements
        are immutable).  Writes only ever land in unsealed heap shards:
        sealing stops strictly below the committed length.
        """
        values = np.asarray(values, dtype=self.dtype)
        if start < self._n:
            raise ValueError(
                f"cannot overwrite committed elements (start={start} < n={self._n})"
            )
        self._ensure_capacity(start + values.shape[0])
        R = self.shard_rows
        pos, off = start, 0
        total = values.shape[0]
        while off < total:
            si, lo = divmod(pos, R)
            take = min(R - lo, total - off)
            shard = self._shards[si]
            assert not shard.sealed, "staged write hit a sealed shard"
            shard.heap[lo : lo + take] = values[off : off + take]
            pos += take
            off += take

    def append(self, values: np.ndarray) -> None:
        """Append ``values`` and advance the live length."""
        values = np.asarray(values, dtype=self.dtype)
        start = self._n
        self.write_at(start, values)
        self.set_length(start + values.shape[0])

    def set_length(self, n: int) -> None:
        """Advance the live length to ``n`` (after :meth:`write_at`).

        Shards that are now entirely below the committed length are
        sealed and handed to the policy, which may spill the
        least-recently-used ones past the resident budget.
        """
        if n < self._n:
            raise ValueError(f"cannot shrink committed length {self._n} to {n}")
        if n > self.capacity:
            raise ValueError(f"length {n} exceeds capacity {self.capacity}")
        self._n = n
        boundary = n // self.shard_rows
        for i in range(self._sealed_upto, boundary):
            shard = self._shards[i]
            shard.sealed = True
            self.policy.note_sealed(shard)
        self._sealed_upto = max(self._sealed_upto, boundary)

    def truncate(self, n: int) -> None:
        """Shrink the live length to ``n`` (rollback of appends).

        Same caveat as :meth:`GrowableArray.truncate`: the caller owns
        the invariant that no consumer still relies on a view past
        ``n``.  Sealed shards at or past the new boundary are unsealed;
        the boundary shard reloads its committed prefix from its spill
        file if it was already evicted.
        """
        if not 0 <= n <= self._n:
            raise ValueError(f"cannot truncate length {self._n} to {n}")
        boundary, rem = divmod(n, self.shard_rows)
        for i in range(boundary, self._sealed_upto):
            shard = self._shards[i]
            self.policy.forget(shard)
            shard.unseal(reload=(i == boundary and rem > 0))
        self._sealed_upto = min(self._sealed_upto, boundary)
        self._n = n

    # ------------------------------------------------------------------ #
    # Reads.
    def slice(self, start: int, stop: int) -> np.ndarray:
        """Elements ``[start, stop)`` as a read-only array.

        Zero-copy (a view of the heap chunk or spilled memmap) when the
        range lives in one shard; a fresh ``stop - start`` sized array
        otherwise.  Bounds are against written capacity, not the live
        length, so staged-snapshot reads work — callers normalize.
        """
        if not 0 <= start <= stop <= self.capacity:
            raise ValueError(
                f"slice [{start}, {stop}) out of range for capacity {self.capacity}"
            )
        if stop == start:
            out = np.empty(0, dtype=self.dtype)
            out.flags.writeable = False
            return out
        R = self.shard_rows
        first, last = start // R, (stop - 1) // R
        if first == last:
            shard = self._shards[first]
            self.policy.touch(shard)
            view = shard.read()[start - first * R : stop - first * R]
            view.flags.writeable = False
            return view
        out = np.empty(stop - start, dtype=self.dtype)
        pos = start
        while pos < stop:
            si, lo = divmod(pos, R)
            take = min(R - lo, stop - pos)
            shard = self._shards[si]
            self.policy.touch(shard)
            out[pos - start : pos - start + take] = shard.read_range(lo, lo + take)
            pos += take
        out.flags.writeable = False
        return out

    def gather(self, indices: np.ndarray, n: int | None = None) -> np.ndarray:
        """Elements at ``indices`` (negatives allowed), in order.

        ``n`` bounds the addressable range (default: the live length);
        reads group by shard so each chunk is visited once.
        """
        bound = self._n if n is None else n
        idx = np.asarray(indices, dtype=np.intp)
        flat = idx.reshape(-1)
        if flat.size == 0:
            return np.empty(idx.shape, dtype=self.dtype)
        neg = flat < 0
        if neg.any():
            flat = np.where(neg, flat + bound, flat)
        bad = (flat < 0) | (flat >= bound)
        if bad.any():
            raise IndexError(
                f"index {int(np.asarray(indices).reshape(-1)[int(np.argmax(bad))])} "
                f"out of range for {bound} elements"
            )
        # Group by shard via one sort instead of a full boolean mask per
        # shard (O(n log n) total, not O(n_shards · n)); sorted locals
        # also give gather_local contiguous runs to coalesce.
        out = np.empty(flat.shape[0], dtype=self.dtype)
        R = self.shard_rows
        order = np.argsort(flat, kind="stable")
        sorted_idx = flat[order]
        pos = 0
        while pos < sorted_idx.shape[0]:
            si = int(sorted_idx[pos]) // R
            end = int(np.searchsorted(sorted_idx, (si + 1) * R, side="left"))
            shard = self._shards[si]
            self.policy.touch(shard)
            out[order[pos:end]] = shard.gather_local(sorted_idx[pos:end] - si * R)
            pos = end
        return out.reshape(idx.shape)

    def view(self, n: int | None = None) -> np.ndarray:
        """Read-only array of the first ``n`` (default: live) elements.

        The dense escape hatch: zero-copy while the range fits one
        shard, a full materialization (O(n) heap) past that — callers
        that can use :meth:`slice` / :meth:`gather` should.
        """
        if n is None:
            n = self._n
        if n > self.capacity:
            raise ValueError(f"view of {n} elements exceeds capacity")
        return self.slice(0, n)

    def advise_cold(self) -> None:
        """Drop spilled shards' mapped pages from the OS page cache.

        Streaming workloads call this after a cold scan so transient
        memmap reads do not accumulate in the process RSS.
        """
        for shard in self._shards:
            if shard.spilled:
                shard.advise_cold()


def row_block_spans(table, block_rows: int | None = None, *, advise_cold: bool = False):
    """Yield ``(start, stop)`` row spans for a blocked pass over ``table``.

    For a :class:`ShardedTable` the spans align with its shard width (each
    ``table.row_slice(start, stop)`` then reads exactly one shard per
    column, zero-copy); for a plain dense :class:`~repro.data.table.Table`
    a single full-range span is yielded — the rows are already resident,
    so chunking would only add overhead.  ``block_rows`` overrides the
    span width in both cases.

    With ``advise_cold=True``, ``table.advise_cold()`` (when present) runs
    each time the generator is advanced past a span — i.e. after the
    consumer has processed the previous block.  A sequential cold scan
    reads each spilled shard exactly once, so dropping its mapped pages
    immediately keeps the whole pass's RSS peak at O(block) instead of
    letting the full spilled set accumulate in resident memory.

    Row-independent whole-table passes (rule coverage, ``frs.assign``,
    encoder transforms, prediction) iterate these spans instead of
    densifying via :meth:`ShardedTable.column`, keeping their transient
    working set O(block) instead of O(n).
    """
    n = int(table.n_rows)
    advise = getattr(table, "advise_cold", None) if advise_cold else None
    if block_rows is None:
        block_rows = getattr(table, "shard_rows", None)
    if block_rows is None or block_rows >= n:
        if n:
            yield (0, n)
        if advise is not None:
            advise()
        return
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    for start in range(0, n, block_rows):
        yield (start, min(start + block_rows, n))
        if advise is not None:
            advise()


class _LazyColumns(Mapping):
    """Mapping façade over sharded columns, materializing on access.

    Base-class :class:`Table` methods that touch ``self._data`` directly
    (``concat``, ``with_column``) keep working against a sharded
    snapshot — at full-column materialization cost, which is exactly the
    dense escape hatch :meth:`ShardedTable.column` documents.
    """

    __slots__ = ("_arrays", "_n")

    def __init__(self, arrays: dict[str, ShardedArray], n: int) -> None:
        self._arrays = arrays
        self._n = n

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name].view(self._n)

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)


class ShardedTable(Table):
    """A :class:`Table` snapshot served from sharded, spillable storage.

    Handed out by :meth:`TableBuilder.snapshot` when a
    :class:`SpillPolicy` is active.  Row-oriented accessors are
    shard-aware and touch only the chunks they overlap; ``column``
    materializes (the dense escape hatch for whole-column consumers such
    as model encoders).  All methods return plain dense tables/arrays,
    so downstream code sees ordinary NumPy data.
    """

    __slots__ = ("_arrays",)

    @classmethod
    def _wrap_sharded(
        cls, schema: Schema, arrays: dict[str, ShardedArray], n_rows: int
    ) -> "ShardedTable":
        table = object.__new__(cls)
        table.schema = schema
        table._arrays = arrays
        table._data = _LazyColumns(arrays, n_rows)
        table._n_rows = int(n_rows)
        return table

    # ------------------------------------------------------------------ #
    @property
    def shard_rows(self) -> int:
        """Rows per shard (every column shares one :class:`SpillPolicy`)."""
        for arr in self._arrays.values():
            return arr.shard_rows
        return DEFAULT_SHARD_ROWS

    def column(self, name: str) -> np.ndarray:
        """Materialized full column (read-only); prefer the row-oriented
        accessors when the resident budget matters."""
        try:
            arr = self._arrays[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None
        return arr.view(self._n_rows)

    def row_slice(self, start: int, stop: int) -> Table:
        """Rows ``[start, stop)`` reading only the shards they overlap.

        Zero-copy (heap or memmap views) when the range fits one shard
        per column; the result is a plain dense :class:`Table`.
        """
        start, stop, _ = slice(start, stop).indices(self._n_rows)
        stop = max(stop, start)
        cols = {
            name: arr.slice(start, stop) for name, arr in self._arrays.items()
        }
        return Table._wrap(self.schema, cols, stop - start)

    def take(self, indices: np.ndarray) -> Table:
        """Rows at ``indices`` via per-shard grouped gathers."""
        idx = np.asarray(indices, dtype=np.intp)
        cols = {
            name: arr.gather(idx, self._n_rows)
            for name, arr in self._arrays.items()
        }
        return Table(self.schema, cols, copy=False)

    def loc_mask(self, mask: np.ndarray) -> Table:
        """Rows where ``mask`` is True (shard-grouped, like :meth:`take`)."""
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self._n_rows,):
            raise ValueError(
                f"mask shape {m.shape} does not match table with {self._n_rows} rows"
            )
        return self.take(np.flatnonzero(m))

    def row(self, i: int) -> dict[str, float | int]:
        """Row ``i`` reading one element per column (no materialization).

        Routed through :meth:`ShardedArray.gather` so spilled shards are
        read with ``pread`` — a single-element mapped fault would drag in
        a fault-around cluster of pages per column.
        """
        if not -self._n_rows <= i < self._n_rows:
            raise IndexError(f"row index {i} out of range for {self._n_rows} rows")
        probe = np.array([i], dtype=np.intp)
        return {
            name: arr.gather(probe, self._n_rows)[0].item()
            for name, arr in self._arrays.items()
        }

    def row_decoded(self, i: int) -> dict[str, float | str]:
        """Row ``i`` with categorical codes decoded to strings."""
        raw = self.row(i)
        out: dict[str, float | str] = {}
        for spec in self.schema:
            v = raw[spec.name]
            out[spec.name] = (
                spec.categories[int(v)] if spec.is_categorical else float(v)
            )
        return out

    # ------------------------------------------------------------------ #
    def advise_cold(self) -> None:
        """Drop this snapshot's spilled pages from the OS page cache."""
        for arr in self._arrays.values():
            arr.advise_cold()

    def storage_stats(self) -> dict[str, int]:
        """Aggregate shard statistics across all columns."""
        total: dict[str, int] = {}
        for arr in self._arrays.values():
            for key, value in arr.storage_stats().items():
                total[key] = total.get(key, 0) + value
        return total
