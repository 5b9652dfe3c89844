"""Persist experiment records as JSON.

Every driver in :mod:`repro.experiments` returns plain dict records; this
module writes/reads them with a small metadata envelope so the CLI (and
EXPERIMENTS.md regeneration) can cache expensive runs.  The
content-addressed per-run store behind :class:`~repro.experiments.RunStore`
shares this module's :func:`to_jsonable` / :func:`from_jsonable` coercions.

Non-finite floats (``NaN``, ``±inf``) are encoded explicitly as
``{"__float__": "nan" | "inf" | "-inf"}`` markers: ``json.dumps`` would
otherwise emit the bare tokens ``NaN``/``Infinity``, which are *not* valid
JSON and break any strict parser reading the archives.  All dumps here pass
``allow_nan=False`` so a non-finite value that slips past the coercion
fails loudly instead of silently corrupting the file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_NONFINITE_KEY = "__float__"
_NONFINITE_ENCODE = {math.inf: "inf", -math.inf: "-inf"}
_NONFINITE_DECODE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def to_jsonable(value):
    """Coerce NumPy scalars/arrays and non-finite floats to strict JSON."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return to_jsonable(float(value))
    if isinstance(value, float) and not math.isfinite(value):
        marker = "nan" if math.isnan(value) else _NONFINITE_ENCODE[value]
        return {_NONFINITE_KEY: marker}
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def from_jsonable(value):
    """Invert :func:`to_jsonable`'s non-finite markers after ``json.loads``."""
    if isinstance(value, dict):
        if set(value) == {_NONFINITE_KEY} and value[_NONFINITE_KEY] in _NONFINITE_DECODE:
            return _NONFINITE_DECODE[value[_NONFINITE_KEY]]
        return {k: from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [from_jsonable(v) for v in value]
    return value


def dump_json(payload, *, indent: int | None = 2, sort_keys: bool = False) -> str:
    """Strict-JSON dumps of an already-:func:`to_jsonable` payload."""
    return json.dumps(payload, indent=indent, sort_keys=sort_keys, allow_nan=False)


@dataclass(frozen=True)
class ExperimentArchive:
    """A named batch of experiment records plus run metadata."""

    name: str
    records: list[dict]
    metadata: dict

    def to_json(self) -> str:
        return dump_json(
            {
                "name": self.name,
                "metadata": to_jsonable(self.metadata),
                "records": to_jsonable(self.records),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentArchive":
        payload = json.loads(text)
        for key in ("name", "records"):
            if key not in payload:
                raise ValueError(f"archive missing required key {key!r}")
        return cls(
            name=payload["name"],
            records=list(from_jsonable(payload["records"])),
            metadata=dict(from_jsonable(payload.get("metadata", {}))),
        )


def save_records(
    name: str,
    records: list[dict],
    path: str | Path,
    *,
    metadata: dict | None = None,
) -> Path:
    """Write records to ``path`` (parent directories created)."""
    archive = ExperimentArchive(name, records, dict(metadata or {}))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(archive.to_json())
    return out


def load_records(path: str | Path) -> ExperimentArchive:
    """Read an archive written by :func:`save_records`."""
    return ExperimentArchive.from_json(Path(path).read_text())
