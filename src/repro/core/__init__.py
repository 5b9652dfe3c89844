"""FROTE core: configuration, objective, base populations, selection,
and the result types of the edit loop (the loop itself runs through
:func:`repro.edit`)."""

from repro.core.audit import (
    ORIGINAL,
    RELABELLED,
    SYNTHETIC,
    EditAudit,
    RowProvenance,
)
from repro.core.config import FroteConfig
from repro.core.inflection import (
    InflectionTrace,
    format_inflection,
    trace_inflection,
)
from repro.core.ip import (
    SelectionProblem,
    build_selection_problem,
    greedy_selection,
    solve_lp_relaxation,
    solve_selection,
)
from repro.core.modification import ModificationResult, apply_modification
from repro.core.objective import Evaluation, evaluate_model, evaluate_predictions
from repro.core.online_proxy import OnlineObjectiveProxy, OnlineProxySelector
from repro.core.preselect import (
    BasePopulation,
    RulePopulation,
    preselect_base_population,
)
from repro.core.selection import (
    IPSelector,
    RandomSelector,
    SelectionContext,
    make_selector,
)
from repro.engine.state import FroteResult, IterationRecord

__all__ = [
    "FroteConfig",
    "FroteResult",
    "IterationRecord",
    "Evaluation",
    "evaluate_model",
    "evaluate_predictions",
    "BasePopulation",
    "RulePopulation",
    "preselect_base_population",
    "RandomSelector",
    "IPSelector",
    "SelectionContext",
    "make_selector",
    "SelectionProblem",
    "build_selection_problem",
    "solve_selection",
    "solve_lp_relaxation",
    "greedy_selection",
    "apply_modification",
    "ModificationResult",
    "OnlineObjectiveProxy",
    "OnlineProxySelector",
    "EditAudit",
    "RowProvenance",
    "ORIGINAL",
    "RELABELLED",
    "SYNTHETIC",
    "InflectionTrace",
    "trace_inflection",
    "format_inflection",
]
