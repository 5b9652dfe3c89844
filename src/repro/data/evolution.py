"""Schema-evolution deltas: ordered, replayable migrations over live data.

Over a frozen schema the edit loop changes its dataset in two ways only:
it appends accepted rows or rebuilds wholesale
(:meth:`~repro.engine.state.EditState.record_append` /
:meth:`~repro.engine.state.EditState.record_rebuild`).  This module
covers the change one level up: a :class:`SchemaDelta` records a change
to the *feature space* itself (add / drop / rename / retype a column), and an ordered sequence
of schema deltas replays over :class:`~repro.data.schema.Schema`,
:class:`~repro.data.table.Table`, and :class:`~repro.data.dataset.Dataset`
exactly the way database migration files (V2, V3, …) replay over a live
schema: each delta is a pure, deterministic function of its input, so any
two replays of the same sequence from the same base are bit-identical.

Versioning mirrors the dataset-version tokens: every schema has a content
fingerprint (:func:`schema_fingerprint`), and a :class:`SchemaVersion`
lineage chains fingerprints through delta content hashes — the schema
analogue of ``dataset_version`` tokens, but content-addressed so lineages
agree across processes (journal replay, stored runs).

Each delta also self-classifies what *survives* it (see
:meth:`SchemaDelta.coverage_survives` and
:attr:`SchemaDelta.model_survives`): rule-coverage caches read only the
columns a rule references, so an ``add_column`` never invalidates them,
while a fitted encoder's one-hot layout depends on every column, so any
delta except a pure rename forces a model refit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

import numpy as np

from repro.data.builder import TableBuilder
from repro.data.dataset import Dataset
from repro.data.schema import CATEGORICAL, NUMERIC, Schema
from repro.data.shards import ShardedTable, row_block_spans
from repro.data.table import Table

__all__ = [
    "ADD_COLUMN",
    "DROP_COLUMN",
    "RENAME_COLUMN",
    "RETYPE_COLUMN",
    "SchemaDelta",
    "SchemaMigrationError",
    "SchemaVersion",
    "Migration",
    "schema_fingerprint",
    "schema_delta_key",
    "delta_to_jsonable",
    "delta_from_jsonable",
    "migrate_table",
    "migrate_dataset",
    "migrate_rule",
    "migrate_ruleset",
    "lineage",
]

#: Schema-delta operations, mirroring the four migration-file primitives.
ADD_COLUMN = "add_column"
DROP_COLUMN = "drop_column"
RENAME_COLUMN = "rename_column"
RETYPE_COLUMN = "retype_column"

_OPS = (ADD_COLUMN, DROP_COLUMN, RENAME_COLUMN, RETYPE_COLUMN)


class SchemaMigrationError(ValueError):
    """A schema delta cannot be applied to the given schema/table/rules."""


@dataclass(frozen=True)
class SchemaDelta:
    """One replayable change to a feature space.

    Use the classmethod constructors (:meth:`add_column`,
    :meth:`drop_column`, :meth:`rename_column`, :meth:`retype_column`)
    rather than the raw dataclass — they validate the op-specific fields.

    Every delta is *total and explicit*: an added column carries its fill
    value for existing rows, a retype carries the exact cast (per-category
    values, bin thresholds, or vocabulary mapping), so replay never
    consults anything but the delta and the data it is applied to.
    """

    op: str
    column: str
    #: ``add_column``: kind/vocabulary of the new column and the fill
    #: value (a float for numeric, a category string for categorical)
    #: backfilled into every existing row.  ``position`` inserts at an
    #: ordinal slot (``None`` appends).
    kind: str = ""
    categories: tuple[str, ...] = ()
    fill: Any = None
    position: int | None = None
    #: ``rename_column``: the new name.
    new_name: str = ""
    #: ``retype_column`` casts — exactly one is set, matching the
    #: direction: ``values`` maps category → float (categorical→numeric),
    #: ``bins`` are sorted upper-open thresholds assigning floats to
    #: ``len(categories)`` buckets (numeric→categorical), ``mapping``
    #: maps old category → new category (vocabulary change).
    values: tuple[tuple[str, float], ...] = ()
    bins: tuple[float, ...] = ()
    mapping: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown schema-delta op {self.op!r}; expected one of {_OPS}")
        if not self.column:
            raise ValueError("schema delta needs a column name")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def add_column(
        cls,
        name: str,
        kind: str = NUMERIC,
        categories: Iterable[str] = (),
        *,
        fill: Any = None,
        position: int | None = None,
    ) -> "SchemaDelta":
        """Add a column, backfilling ``fill`` into every existing row."""
        categories = tuple(categories)
        if kind == NUMERIC:
            fill = 0.0 if fill is None else float(fill)
        elif kind == CATEGORICAL:
            if not categories:
                raise SchemaMigrationError(
                    f"add_column({name!r}): categorical columns need a vocabulary"
                )
            fill = categories[0] if fill is None else str(fill)
            if fill not in categories:
                raise SchemaMigrationError(
                    f"add_column({name!r}): fill {fill!r} not in categories {categories}"
                )
        else:
            raise SchemaMigrationError(f"add_column({name!r}): unknown kind {kind!r}")
        return cls(
            op=ADD_COLUMN, column=name, kind=kind, categories=categories,
            fill=fill, position=position,
        )

    @classmethod
    def drop_column(cls, name: str) -> "SchemaDelta":
        """Remove a column and its stored values."""
        return cls(op=DROP_COLUMN, column=name)

    @classmethod
    def rename_column(cls, old: str, new: str) -> "SchemaDelta":
        """Rename a column; values and rule predicates migrate in lockstep."""
        if not new:
            raise SchemaMigrationError(f"rename_column({old!r}): empty new name")
        return cls(op=RENAME_COLUMN, column=old, new_name=new)

    @classmethod
    def retype_column(
        cls,
        name: str,
        kind: str,
        categories: Iterable[str] = (),
        *,
        values: dict[str, float] | None = None,
        bins: Iterable[float] | None = None,
        mapping: dict[str, str] | None = None,
    ) -> "SchemaDelta":
        """Convert a column's type with an explicit, total cast.

        Exactly one cast spec must be given:

        * ``values`` — categorical → numeric: every category maps to a float;
        * ``bins`` + ``categories`` — numeric → categorical: sorted
          thresholds; value ``x`` gets code ``searchsorted(bins, x,
          'right')``, so ``len(bins) == len(categories) - 1``;
        * ``mapping`` + ``categories`` — categorical → categorical:
          every old category maps into the new vocabulary.
        """
        categories = tuple(categories)
        specs = [s is not None for s in (values, bins, mapping)]
        if sum(specs) != 1:
            raise SchemaMigrationError(
                f"retype_column({name!r}): exactly one of values/bins/mapping required"
            )
        if values is not None:
            if kind != NUMERIC:
                raise SchemaMigrationError(
                    f"retype_column({name!r}): a values cast targets kind='numeric'"
                )
            return cls(
                op=RETYPE_COLUMN, column=name, kind=kind,
                values=tuple((str(k), float(v)) for k, v in values.items()),
            )
        if kind != CATEGORICAL or not categories:
            raise SchemaMigrationError(
                f"retype_column({name!r}): bins/mapping casts target "
                "kind='categorical' with a vocabulary"
            )
        if bins is not None:
            bins = tuple(float(b) for b in bins)
            if list(bins) != sorted(bins):
                raise SchemaMigrationError(
                    f"retype_column({name!r}): bins must be sorted, got {bins}"
                )
            if len(bins) != len(categories) - 1:
                raise SchemaMigrationError(
                    f"retype_column({name!r}): {len(categories)} categories need "
                    f"{len(categories) - 1} bin thresholds, got {len(bins)}"
                )
            return cls(
                op=RETYPE_COLUMN, column=name, kind=kind,
                categories=categories, bins=bins,
            )
        assert mapping is not None
        mapping_t = tuple((str(k), str(v)) for k, v in mapping.items())
        for _, new_cat in mapping_t:
            if new_cat not in categories:
                raise SchemaMigrationError(
                    f"retype_column({name!r}): mapped value {new_cat!r} "
                    f"not in new vocabulary {categories}"
                )
        return cls(
            op=RETYPE_COLUMN, column=name, kind=kind,
            categories=categories, mapping=mapping_t,
        )

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #
    def apply_to_schema(self, schema: Schema) -> Schema:
        """Replay this delta over a schema, returning the evolved schema."""
        try:
            if self.op == ADD_COLUMN:
                return schema.with_column(
                    self.column, self.kind, self.categories, position=self.position
                )
            if self.op == DROP_COLUMN:
                return schema.without(self.column)
            if self.op == RENAME_COLUMN:
                return schema.renamed(self.column, self.new_name)
            self._check_retype_source(schema)
            return schema.retyped(self.column, self.kind, self.categories)
        except (KeyError, ValueError) as exc:
            if isinstance(exc, SchemaMigrationError):
                raise
            raise SchemaMigrationError(f"{self.describe()}: {exc}") from exc

    def apply_to_table(self, table: Table) -> Table:
        """Replay this delta over a table (schema + stored values); a
        :class:`~repro.data.shards.ShardedTable` migrates block by block
        (:func:`migrate_table`)."""
        return migrate_table(table, (self,))

    def _apply_to_block(self, table: Table, schema: Schema) -> Table:
        """This delta over a dense table, whose migrated schema is ``schema``."""
        cols: dict[str, np.ndarray] = {}
        for name in table.schema.names:
            if self.op == DROP_COLUMN and name == self.column:
                continue
            out_name = (
                self.new_name
                if self.op == RENAME_COLUMN and name == self.column
                else name
            )
            if self.op == RETYPE_COLUMN and name == self.column:
                cols[out_name] = self._cast(table)
            else:
                cols[out_name] = table.column(name)
        if self.op == ADD_COLUMN:
            if self.kind == NUMERIC:
                cols[self.column] = np.full(table.n_rows, float(self.fill))
            else:
                code = self.categories.index(str(self.fill))
                cols[self.column] = np.full(table.n_rows, code, dtype=np.int64)
        # The validating constructor re-checks categorical code ranges —
        # migrations are rare boundary events, so the O(n) scan is cheap
        # insurance against a bad cast spec.
        return Table(schema, cols, copy=False)

    def apply_to_dataset(self, dataset: Dataset) -> Dataset:
        """Replay this delta over a dataset's features (labels untouched)."""
        return Dataset._from_trusted(
            self.apply_to_table(dataset.X), dataset.y, dataset.label_names
        )

    def _check_retype_source(self, schema: Schema) -> None:
        spec = schema[self.column]
        if self.values and not spec.is_categorical:
            raise SchemaMigrationError(
                f"{self.describe()}: a values cast needs a categorical source"
            )
        if self.bins and not spec.is_numeric:
            raise SchemaMigrationError(
                f"{self.describe()}: a bins cast needs a numeric source"
            )
        if self.mapping:
            if not spec.is_categorical:
                raise SchemaMigrationError(
                    f"{self.describe()}: a mapping cast needs a categorical source"
                )
            missing = [c for c in spec.categories if c not in dict(self.mapping)]
            if missing:
                raise SchemaMigrationError(
                    f"{self.describe()}: mapping misses categories {missing}"
                )

    def _cast(self, table: Table) -> np.ndarray:
        spec = table.schema[self.column]
        arr = table.column(self.column)
        if self.values:
            values = dict(self.values)
            missing = [c for c in spec.categories if c not in values]
            if missing:
                raise SchemaMigrationError(
                    f"{self.describe()}: values cast misses categories {missing}"
                )
            lut = np.array([values[c] for c in spec.categories], dtype=np.float64)
            return lut[arr]
        if self.bins:
            return np.searchsorted(
                np.asarray(self.bins, dtype=np.float64), arr, side="right"
            ).astype(np.int64)
        mapping = dict(self.mapping)
        new_codes = {cat: i for i, cat in enumerate(self.categories)}
        lut = np.array(
            [new_codes[mapping[c]] for c in spec.categories], dtype=np.int64
        )
        return lut[arr]

    # ------------------------------------------------------------------ #
    # Survive-vs-refit classification
    # ------------------------------------------------------------------ #
    @property
    def model_survives(self) -> bool:
        """Whether a fitted encoder/model stays valid across this delta.

        Only a pure rename: values and one-hot layout are bit-identical,
        so the fitted encoder migrates symbolically (its stored schema is
        renamed in lockstep).  Add/drop/retype change the encoded feature
        space and force a deterministic refit.
        """
        return self.op == RENAME_COLUMN

    def coverage_survives(self, attributes: Iterable[str]) -> bool:
        """Whether row-level rule coverage over ``attributes`` is unchanged.

        Coverage masks read only the columns a rule references, so adding
        a column never perturbs them, and renames survive because rules
        are migrated in the same step.  Dropping or retyping a referenced
        column cannot survive (and :func:`migrate_rule` refuses it).
        """
        if self.op in (ADD_COLUMN, RENAME_COLUMN):
            return True
        return self.column not in set(attributes)

    def describe(self) -> str:
        """One-line human description, used in provenance strings."""
        if self.op == ADD_COLUMN:
            return f"add_column({self.column!r}, {self.kind})"
        if self.op == DROP_COLUMN:
            return f"drop_column({self.column!r})"
        if self.op == RENAME_COLUMN:
            return f"rename_column({self.column!r} -> {self.new_name!r})"
        return f"retype_column({self.column!r} -> {self.kind})"


# ---------------------------------------------------------------------- #
# Serialization (journals, stored runs, wire formats)
# ---------------------------------------------------------------------- #
def delta_to_jsonable(delta: SchemaDelta) -> dict[str, Any]:
    """Symbolic, schema-independent encoding of a schema delta."""
    out: dict[str, Any] = {"op": delta.op, "column": delta.column}
    if delta.op == ADD_COLUMN:
        out["kind"] = delta.kind
        out["fill"] = delta.fill
        if delta.categories:
            out["categories"] = list(delta.categories)
        if delta.position is not None:
            out["position"] = delta.position
    elif delta.op == RENAME_COLUMN:
        out["new_name"] = delta.new_name
    elif delta.op == RETYPE_COLUMN:
        out["kind"] = delta.kind
        if delta.categories:
            out["categories"] = list(delta.categories)
        if delta.values:
            out["values"] = [[k, v] for k, v in delta.values]
        if delta.bins:
            out["bins"] = list(delta.bins)
        if delta.mapping:
            out["mapping"] = [[k, v] for k, v in delta.mapping]
    return out


def delta_from_jsonable(data: dict[str, Any]) -> SchemaDelta:
    """Inverse of :func:`delta_to_jsonable`."""
    op = data["op"]
    name = data["column"]
    if op == ADD_COLUMN:
        return SchemaDelta.add_column(
            name,
            data.get("kind", NUMERIC),
            tuple(data.get("categories", ())),
            fill=data.get("fill"),
            position=data.get("position"),
        )
    if op == DROP_COLUMN:
        return SchemaDelta.drop_column(name)
    if op == RENAME_COLUMN:
        return SchemaDelta.rename_column(name, data["new_name"])
    if op == RETYPE_COLUMN:
        return SchemaDelta.retype_column(
            name,
            data.get("kind", CATEGORICAL),
            tuple(data.get("categories", ())),
            values={k: v for k, v in data["values"]} if "values" in data else None,
            bins=tuple(data["bins"]) if "bins" in data else None,
            mapping={k: v for k, v in data["mapping"]} if "mapping" in data else None,
        )
    raise ValueError(f"unknown schema-delta op {op!r}")


def schema_delta_key(delta: SchemaDelta) -> str:
    """Canonical content identity of a schema delta (stable across processes)."""
    return json.dumps(delta_to_jsonable(delta), sort_keys=True, separators=(",", ":"))


def schema_fingerprint(schema: Schema) -> str:
    """Content hash of a schema — the genesis of a version lineage."""
    payload = json.dumps(
        [[c.name, c.kind, list(c.categories)] for c in schema.columns],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# Version lineage
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class SchemaVersion:
    """One node of a schema's migration lineage.

    The ``version`` token is a content hash chained through the deltas
    (``sha256(parent_version + delta_key)``), so two processes replaying
    the same migrations from the same base compute identical lineages —
    the property journal replay and stored-run migration rely on.
    """

    version: str
    schema: Schema
    parent: str | None = None
    delta: SchemaDelta | None = None

    @classmethod
    def genesis(cls, schema: Schema) -> "SchemaVersion":
        """The lineage root: the base schema, addressed by its fingerprint."""
        return cls(version=schema_fingerprint(schema), schema=schema)

    def advance(self, delta: SchemaDelta) -> "SchemaVersion":
        """Apply ``delta``, returning the child version node."""
        payload = f"{self.version}:{schema_delta_key(delta)}"
        token = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
        return SchemaVersion(
            version=token,
            schema=delta.apply_to_schema(self.schema),
            parent=self.version,
            delta=delta,
        )


def lineage(schema: Schema, deltas: Iterable[SchemaDelta]) -> list[SchemaVersion]:
    """Full version lineage of replaying ``deltas`` in order over ``schema``."""
    node = SchemaVersion.genesis(schema)
    out = [node]
    for delta in deltas:
        node = node.advance(delta)
        out.append(node)
    return out


# ---------------------------------------------------------------------- #
# Ordered replay — the V2…V6 migration-file idiom
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Migration:
    """A named, ordered sequence of schema deltas replayed as a unit."""

    deltas: tuple[SchemaDelta, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.deltas, tuple):
            object.__setattr__(self, "deltas", tuple(self.deltas))

    def __iter__(self) -> Iterator[SchemaDelta]:
        return iter(self.deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def apply_to_schema(self, schema: Schema) -> Schema:
        for delta in self.deltas:
            schema = delta.apply_to_schema(schema)
        return schema

    def apply_to_table(self, table: Table) -> Table:
        return migrate_table(table, self.deltas)

    def apply_to_dataset(self, dataset: Dataset) -> Dataset:
        return migrate_dataset(dataset, self.deltas)

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "deltas": [delta_to_jsonable(d) for d in self.deltas],
        }

    @classmethod
    def from_jsonable(cls, data: dict[str, Any]) -> "Migration":
        return cls(
            deltas=tuple(delta_from_jsonable(d) for d in data.get("deltas", ())),
            name=str(data.get("name", "")),
        )


def migrate_table(table: Table, deltas: Iterable[SchemaDelta]) -> Table:
    """Replay ``deltas`` in order over a table.

    A :class:`~repro.data.shards.ShardedTable` goes through every delta
    one row block at a time (:func:`~repro.data.shards.row_block_spans`)
    into one sharded table of its shard width whose sealed shards are
    spilled as they fill (:meth:`~repro.data.shards.SpillPolicy.spilling`),
    so the migration holds neither a dense copy of the table nor a second
    resident set; a builder that takes the result in reads it back one
    block at a time.
    """
    deltas = tuple(deltas)
    schemas = []
    schema = table.schema
    for delta in deltas:  # raises before any data is read
        schema = delta.apply_to_schema(schema)
        schemas.append(schema)
    if not deltas:
        return table
    if not isinstance(table, ShardedTable):
        return _migrate_block(table, deltas, schemas)
    policy = table.policy
    builder = TableBuilder(schema, policy=None if policy is None else policy.spilling())
    for start, stop in row_block_spans(table, advise_cold=True):
        # No name holds a block past its append: the next one is read
        # with only the builder's copy of this one alive.
        builder.append(_migrate_block(table.row_slice(start, stop), deltas, schemas))
    return builder.snapshot()


def _migrate_block(
    table: Table, deltas: tuple[SchemaDelta, ...], schemas: list[Schema]
) -> Table:
    """``deltas`` over a dense table, ``schemas[i]`` being the schema after
    ``deltas[i]``."""
    for delta, schema in zip(deltas, schemas):
        table = delta._apply_to_block(table, schema)
    return table


def migrate_dataset(dataset: Dataset, deltas: Iterable[SchemaDelta]) -> Dataset:
    """Replay ``deltas`` in order over a dataset's features."""
    return Dataset._from_trusted(
        migrate_table(dataset.X, deltas), dataset.y, dataset.label_names
    )


# ---------------------------------------------------------------------- #
# Rule migration (lazy imports: repro.rules imports repro.data modules)
# ---------------------------------------------------------------------- #
def migrate_rule(rule: Any, delta: SchemaDelta) -> Any:
    """Migrate one feedback rule across a schema delta.

    Renames rewrite the matching predicates in the clause and every
    exception; adds (and drops/retypes of *unreferenced* columns) leave
    the rule untouched.  Dropping or retyping a column the rule reads is
    refused — there is no faithful rewrite, and silently changing
    coverage would corrupt the run.
    """
    from repro.rules.clause import Clause
    from repro.rules.predicate import Predicate
    from repro.rules.rule import FeedbackRule

    referenced = set(rule.clause.attributes)
    for exc_clause in rule.exceptions:
        referenced |= set(exc_clause.attributes)
    if delta.op in (DROP_COLUMN, RETYPE_COLUMN) and delta.column in referenced:
        raise SchemaMigrationError(
            f"cannot {delta.describe()}: rule "
            f"{rule.name or rule.clause!r} references column {delta.column!r}"
        )
    if delta.op != RENAME_COLUMN or delta.column not in referenced:
        return rule

    def rename_clause(clause: Clause) -> Clause:
        return Clause(
            tuple(
                Predicate(delta.new_name, p.operator, p.value)
                if p.attribute == delta.column
                else p
                for p in clause.predicates
            )
        )

    return FeedbackRule(
        clause=rename_clause(rule.clause),
        pi=rule.pi,
        exceptions=tuple(rename_clause(c) for c in rule.exceptions),
        name=rule.name,
    )


def migrate_ruleset(ruleset: Any, delta: SchemaDelta) -> Any:
    """Migrate every rule of a rule set across a schema delta."""
    from repro.rules.ruleset import FeedbackRuleSet

    migrated = tuple(migrate_rule(r, delta) for r in ruleset.rules)
    if migrated == tuple(ruleset.rules):
        return ruleset
    return FeedbackRuleSet(migrated)
