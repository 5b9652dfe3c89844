"""The :class:`Table` container: a minimal mixed-type tabular frame.

``Table`` plays the role pandas would in the original FROTE implementation.
It stores one NumPy array per column — float64 for numeric columns, int64
category codes for categorical columns — plus the :class:`~repro.data.schema.Schema`
describing them.  Row selection (:meth:`Table.take`, :meth:`Table.loc_mask`)
and concatenation (:meth:`Table.concat`) are the only mutations the library
needs, and both return new tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.data.schema import CATEGORICAL, NUMERIC, ColumnSpec, Schema


class Table:
    """Column-oriented container of features over a fixed :class:`Schema`.

    Parameters
    ----------
    schema:
        Column descriptions.
    columns:
        Mapping from column name to 1-D array.  Numeric columns are stored
        as float64; categorical columns as int64 codes in
        ``[0, len(categories))``.
    copy:
        Copy the input arrays (default True) so tables never alias caller
        memory.
    """

    __slots__ = ("schema", "_data", "_n_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        *,
        copy: bool = True,
    ) -> None:
        if set(columns) != set(schema.names):
            missing = set(schema.names) - set(columns)
            extra = set(columns) - set(schema.names)
            raise ValueError(
                f"columns do not match schema (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        data: dict[str, np.ndarray] = {}
        n_rows: int | None = None
        for spec in schema:
            dtype = np.float64 if spec.is_numeric else np.int64
            arr = np.array(columns[spec.name], dtype=dtype, copy=copy)
            if arr.ndim != 1:
                raise ValueError(
                    f"column {spec.name!r} must be 1-D, got shape {arr.shape}"
                )
            if n_rows is None:
                n_rows = arr.shape[0]
            elif arr.shape[0] != n_rows:
                raise ValueError(
                    f"column {spec.name!r} has {arr.shape[0]} rows, expected {n_rows}"
                )
            if spec.is_categorical and arr.size:
                lo, hi = arr.min(), arr.max()
                if lo < 0 or hi >= len(spec.categories):
                    raise ValueError(
                        f"column {spec.name!r} has codes outside "
                        f"[0, {len(spec.categories)}): min={lo}, max={hi}"
                    )
            data[spec.name] = arr
        self.schema = schema
        self._data = data
        self._n_rows = 0 if n_rows is None else int(n_rows)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls, schema: Schema, records: Iterable[Mapping[str, object]]
    ) -> "Table":
        """Build a table from an iterable of per-row dicts.

        Categorical values may be given as category strings (decoded) or as
        integer codes.
        """
        rows = list(records)
        columns: dict[str, np.ndarray] = {}
        for spec in schema:
            if spec.is_numeric:
                columns[spec.name] = np.array(
                    [float(r[spec.name]) for r in rows], dtype=np.float64
                )
            else:
                codes = np.empty(len(rows), dtype=np.int64)
                for i, r in enumerate(rows):
                    v = r[spec.name]
                    codes[i] = spec.code_of(v) if isinstance(v, str) else int(v)
                columns[spec.name] = codes
        return cls(schema, columns, copy=False)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """Return a table with zero rows over ``schema``."""
        cols = {
            spec.name: np.empty(0, dtype=np.float64 if spec.is_numeric else np.int64)
            for spec in schema
        }
        return cls(schema, cols, copy=False)

    @classmethod
    def _wrap(
        cls, schema: Schema, columns: dict[str, np.ndarray], n_rows: int
    ) -> "Table":
        """Wrap pre-validated column arrays without copies or checks.

        Internal fast path for the append builders and zero-copy slicing,
        where the arrays are views of already-validated storage — the
        O(n) categorical code scan of ``__init__`` would make every
        snapshot cost a full pass.  Callers guarantee dtypes, lengths,
        and code ranges.
        """
        table = object.__new__(cls)
        table.schema = schema
        table._data = columns
        table._n_rows = int(n_rows)
        return table

    @staticmethod
    def concat(tables: Iterable["Table"]) -> "Table":
        """Row-wise concatenation of tables sharing one schema."""
        tables = list(tables)
        if not tables:
            raise ValueError("concat requires at least one table")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema != schema:
                raise ValueError("cannot concat tables with different schemas")
        cols = {
            name: np.concatenate([t._data[name] for t in tables])
            for name in schema.names
        }
        return Table(schema, cols, copy=False)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self.schema)

    def __len__(self) -> int:
        return self._n_rows

    def column(self, name: str) -> np.ndarray:
        """Return the raw storage array (float values or int codes).

        The returned array is the internal buffer; callers must not mutate it.
        """
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}") from None

    def decoded(self, name: str) -> np.ndarray:
        """Return a categorical column as an array of category strings."""
        spec = self.schema[name]
        if not spec.is_categorical:
            raise ValueError(f"column {name!r} is numeric; use column()")
        vocab = np.array(spec.categories, dtype=object)
        return vocab[self._data[name]]

    def row(self, i: int) -> dict[str, float | int]:
        """Return row ``i`` as a dict of raw values (codes for categoricals)."""
        if not -self._n_rows <= i < self._n_rows:
            raise IndexError(f"row index {i} out of range for {self._n_rows} rows")
        return {name: self._data[name][i].item() for name in self.schema.names}

    def row_decoded(self, i: int) -> dict[str, float | str]:
        """Return row ``i`` with categorical codes decoded to strings."""
        out: dict[str, float | str] = {}
        for spec in self.schema:
            v = self._data[spec.name][i]
            out[spec.name] = spec.categories[int(v)] if spec.is_categorical else float(v)
        return out

    # ------------------------------------------------------------------ #
    # Row selection and combination
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Table":
        """Return a new table with the rows at ``indices`` (in order)."""
        idx = np.asarray(indices, dtype=np.intp)
        cols = {name: arr[idx] for name, arr in self._data.items()}
        return Table(self.schema, cols, copy=False)

    def row_slice(self, start: int, stop: int) -> "Table":
        """Return rows ``[start, stop)`` as a zero-copy view table.

        Unlike :meth:`take`, no arrays are copied — the returned table
        shares storage with this one (both are immutable by contract).
        The edit loop uses this to extend its row caches over just the
        rows appended past their length.
        """
        start, stop, _ = slice(start, stop).indices(self._n_rows)
        n = max(stop - start, 0)
        cols = {name: arr[start:stop] for name, arr in self._data.items()}
        return Table._wrap(self.schema, cols, n)

    def loc_mask(self, mask: np.ndarray) -> "Table":
        """Return a new table with the rows where ``mask`` is True."""
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self._n_rows,):
            raise ValueError(
                f"mask shape {m.shape} does not match table with {self._n_rows} rows"
            )
        cols = {name: arr[m] for name, arr in self._data.items()}
        return Table(self.schema, cols, copy=False)

    def with_column(self, name: str, values: np.ndarray) -> "Table":
        """Return a copy of the table with column ``name`` replaced."""
        spec = self.schema[name]
        dtype = np.float64 if spec.is_numeric else np.int64
        arr = np.asarray(values, dtype=dtype)
        if arr.shape != (self._n_rows,):
            raise ValueError(
                f"replacement for {name!r} has shape {arr.shape}, "
                f"expected ({self._n_rows},)"
            )
        cols = dict(self._data)
        cols[name] = arr
        return Table(self.schema, cols, copy=True)

    def __repr__(self) -> str:
        kinds = ", ".join(
            f"{c.name}:{'num' if c.is_numeric else 'cat'}" for c in self.schema
        )
        return f"Table({self._n_rows} rows; {kinds})"


def make_schema(
    numeric: Iterable[str] = (),
    categorical: Mapping[str, Iterable[str]] | None = None,
    *,
    order: Iterable[str] | None = None,
) -> Schema:
    """Convenience constructor for a :class:`Schema`.

    Parameters
    ----------
    numeric:
        Names of numeric columns.
    categorical:
        Mapping of categorical column name to its vocabulary.
    order:
        Optional explicit column ordering; defaults to numeric columns
        followed by categorical ones.
    """
    categorical = dict(categorical or {})
    specs: dict[str, ColumnSpec] = {}
    for name in numeric:
        specs[name] = ColumnSpec(name, NUMERIC)
    for name, cats in categorical.items():
        specs[name] = ColumnSpec(name, CATEGORICAL, tuple(cats))
    if order is None:
        ordered = list(numeric) + list(categorical)
    else:
        ordered = list(order)
        if set(ordered) != set(specs):
            raise ValueError("order must list exactly the declared columns")
    return Schema(tuple(specs[n] for n in ordered))
