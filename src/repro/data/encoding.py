"""Feature encoders mapping :class:`~repro.data.table.Table` to matrices.

The classifiers in :mod:`repro.models` operate on dense float matrices.  The
:class:`TabularEncoder` bridges the gap: numeric columns are optionally
standardized, categorical columns are one-hot encoded against the schema
vocabulary (so unseen rows always encode consistently).
"""

from __future__ import annotations

import numpy as np

from repro.data.schema import Schema
from repro.data.table import Table


def _sharded_spans(table: Table):
    """Shard-aligned row spans when ``table`` is sharded, else ``None``."""
    if getattr(table, "shard_rows", None) is None:
        return None
    from repro.data.shards import row_block_spans

    return row_block_spans(table, advise_cold=True)


def _fill_rows(out: np.ndarray, table: Table, fill) -> None:
    """Run ``fill(out, table)``, one shard's rows at a time when sharded.

    Every fill is elementwise per row, so the bits match one dense pass,
    but the transient heap is one shard's sub-table instead of whole
    materialized columns.
    """
    spans = _sharded_spans(table)
    if spans is None:
        fill(out, table)
        return
    for start, stop in spans:
        fill(out[start:stop], table.row_slice(start, stop))


class StandardScaler:
    """Per-feature standardization to zero mean / unit variance."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0) if X.shape[0] else np.zeros(X.shape[1])
        std = X.std(axis=0) if X.shape[0] else np.ones(X.shape[1])
        # Constant features scale to 1 so they transform to exactly zero.
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``(X - mean_) / scale_``, written into ``out`` when given."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        out = np.subtract(np.asarray(X, dtype=np.float64), self.mean_, out=out)
        out /= self.scale_
        return out

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)


class TabularEncoder:
    """Encode a mixed-type table as a dense float matrix.

    Numeric columns are standardized (optional); each categorical column of
    cardinality ``c`` expands to ``c`` one-hot indicator columns.  The layout
    is deterministic: numeric columns first (schema order), then one-hot
    blocks (schema order).

    Parameters
    ----------
    standardize:
        Standardize numeric features using statistics from :meth:`fit`.
    """

    def __init__(self, *, standardize: bool = True) -> None:
        self.standardize = standardize
        self.schema_: Schema | None = None
        self._scaler: StandardScaler | None = None
        self._feature_names: list[str] | None = None

    # ------------------------------------------------------------------ #
    def fit(self, table: Table) -> "TabularEncoder":
        self.schema_ = table.schema
        names: list[str] = list(table.schema.numeric_names)
        for col in table.schema.categorical_names:
            spec = table.schema[col]
            names.extend(f"{col}={cat}" for cat in spec.categories)
        self._feature_names = names
        if self.standardize and table.schema.numeric_names:
            num = np.empty(
                (table.n_rows, len(table.schema.numeric_names)), dtype=np.float64
            )
            _fill_rows(num, table, self._fill_numeric)
            self._scaler = StandardScaler().fit(num)
        else:
            self._scaler = None
        return self

    def transform(self, table: Table) -> np.ndarray:
        if self.schema_ is None:
            raise RuntimeError("TabularEncoder is not fitted")
        if table.schema != self.schema_:
            raise ValueError("table schema does not match the fitted schema")
        out = np.zeros((table.n_rows, self.n_features), dtype=np.float64)
        _fill_rows(out, table, self._fill)
        return out

    def _fill_numeric(self, out: np.ndarray, table: Table) -> None:
        """Copy ``table``'s numeric columns into the leading columns of ``out``."""
        for j, name in enumerate(table.schema.numeric_names):
            out[:, j] = table.column(name)

    def _fill(self, out: np.ndarray, table: Table) -> None:
        """Encode ``table`` into ``out``, a zeroed matrix of its rows."""
        self._fill_numeric(out, table)
        col = len(self.schema_.numeric_names)
        if self._scaler is not None:
            num = out[:, :col]
            self._scaler.transform(num, out=num)
        rows = np.arange(table.n_rows)
        for name in self.schema_.categorical_names:
            k = len(self.schema_[name].categories)
            # Through the block's own view, an out-of-vocabulary code is an
            # IndexError, not a one in the next block.
            out[:, col : col + k][rows, table.column(name)] = 1.0
            col += k

    def iter_transform_blocks(self, table: Table):
        """Yield ``(start, stop, X_block)`` encoded row blocks.

        The streaming face of :meth:`transform` for row-independent
        consumers (prediction): blocks follow the table's shard alignment
        (one block for dense tables), and each block's values are
        bit-identical to the matching rows of a full :meth:`transform`.
        Peak extra heap is one encoded block, never the full matrix.
        """
        if self.schema_ is None:
            raise RuntimeError("TabularEncoder is not fitted")
        spans = _sharded_spans(table)
        if spans is None:
            yield (0, table.n_rows, self.transform(table))
            return
        for start, stop in spans:
            yield (start, stop, self.transform(table.row_slice(start, stop)))

    def fit_transform(self, table: Table) -> np.ndarray:
        return self.fit(table).transform(table)

    def migrate(self, schema: Schema) -> "TabularEncoder":
        """Re-point a fitted encoder at a *layout-identical* schema.

        The schema-evolution rename path: a renamed column changes no
        stored values and no one-hot layout, so the fitted encoder (and
        any scaler statistics) stays exact — only the schema it asserts
        against, and the derived feature names, need updating.  Any
        layout difference (kind, vocabulary, or column order) is refused;
        those migrations must refit.
        """
        if self.schema_ is None:
            raise RuntimeError("TabularEncoder is not fitted")
        old_layout = [(c.kind, c.categories) for c in self.schema_.columns]
        new_layout = [(c.kind, c.categories) for c in schema.columns]
        if old_layout != new_layout:
            raise ValueError(
                "encoder can only migrate to a schema with an identical "
                "column layout (renames); this migration must refit"
            )
        self.schema_ = schema
        names: list[str] = list(schema.numeric_names)
        for col in schema.categorical_names:
            spec = schema[col]
            names.extend(f"{col}={cat}" for cat in spec.categories)
        self._feature_names = names
        return self

    # ------------------------------------------------------------------ #
    @property
    def feature_names(self) -> tuple[str, ...]:
        if self._feature_names is None:
            raise RuntimeError("TabularEncoder is not fitted")
        return tuple(self._feature_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


class OrdinalEncoder:
    """Encode a table as a compact matrix of raw values / integer codes.

    Tree-based models can consume categorical codes directly (they split on
    one-hot columns otherwise); this encoder keeps one column per feature:
    numeric values as-is, categorical codes as floats.  Layout follows schema
    order.
    """

    def __init__(self) -> None:
        self.schema_: Schema | None = None

    def fit(self, table: Table) -> "OrdinalEncoder":
        self.schema_ = table.schema
        return self

    def transform(self, table: Table) -> np.ndarray:
        if self.schema_ is None:
            raise RuntimeError("OrdinalEncoder is not fitted")
        if table.schema != self.schema_:
            raise ValueError("table schema does not match the fitted schema")
        cols = [table.column(n).astype(np.float64) for n in self.schema_.names]
        if not cols:
            return np.zeros((table.n_rows, 0), dtype=np.float64)
        return np.column_stack(cols)

    def fit_transform(self, table: Table) -> np.ndarray:
        return self.fit(table).transform(table)
