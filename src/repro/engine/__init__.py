"""The pluggable edit engine: registries, pipeline stages, and the session
façade.

Three layers, lowest first:

* :mod:`repro.engine.registry` — string-keyed strategy registries
  (:data:`SELECTORS`, :data:`MODIFIERS`, :data:`SAMPLERS`,
  :data:`OBJECTIVES`) with ``register_*`` decorators for user plugins;
* :mod:`repro.engine.stages` — the editing loop decomposed into
  :class:`Stage` objects over a shared :class:`EditState`, driven by
  :class:`EditEngine`;
* :mod:`repro.engine.session` — the fluent :class:`EditSession` façade
  behind :func:`repro.edit`, the one entry point to the edit loop.
"""

from repro.engine.registry import (
    MODIFIERS,
    OBJECTIVES,
    SAMPLERS,
    SELECTORS,
    InfoRegistry,
    Registry,
    RegistryError,
    UnknownEntryError,
    register_modifier,
    register_objective,
    register_sampler,
    register_selector,
)
from repro.engine.migration import SchemaMigrationRecord, apply_schema_delta
from repro.engine.session import EditSession, edit
from repro.engine.stages import (
    AcceptanceStage,
    EditEngine,
    FeedbackStage,
    GenerationStage,
    ModificationStage,
    PreselectStage,
    SelectionStage,
    Stage,
    default_setup_stages,
    default_stages,
)
from repro.engine.state import (
    EditState,
    FroteResult,
    IterationRecord,
    ListenerError,
    ProgressEvent,
)

__all__ = [
    "Registry",
    "InfoRegistry",
    "RegistryError",
    "UnknownEntryError",
    "SELECTORS",
    "MODIFIERS",
    "SAMPLERS",
    "OBJECTIVES",
    "register_selector",
    "register_modifier",
    "register_sampler",
    "register_objective",
    "Stage",
    "FeedbackStage",
    "ModificationStage",
    "PreselectStage",
    "SelectionStage",
    "GenerationStage",
    "AcceptanceStage",
    "EditEngine",
    "default_stages",
    "default_setup_stages",
    "EditState",
    "SchemaMigrationRecord",
    "apply_schema_delta",
    "ListenerError",
    "ProgressEvent",
    "IterationRecord",
    "FroteResult",
    "EditSession",
    "edit",
]
