"""FROTE: Feedback Rule-Driven Oversampling for Editing Models.

Full reproduction of Alkan et al. (MLSYS 2022), grown into a pluggable
model-editing library.  The public API surface:

* :func:`repro.edit` — the fluent :class:`~repro.engine.EditSession`
  façade: the one way to run the edit loop (paper Algorithm 1);
* :mod:`repro.engine` — the pluggable edit engine: strategy registries
  (``register_selector`` & co.), composable pipeline stages, and the
  :class:`~repro.engine.EditEngine` driver;
* :mod:`repro.rules` — feedback rules (parse, learn, perturb, resolve);
* :mod:`repro.feedback` — streaming rule feedback: sources, multi-expert
  vote aggregation, and live ruleset deltas applied to running sessions
  (``EditSession.with_feedback`` / served ``SessionHandle.feed``);
* :mod:`repro.models` — from-scratch LR / RF / GBDT classifiers and the
  black-box training-algorithm wrapper;
* :mod:`repro.datasets` — synthetic UCI-equivalent benchmark datasets;
* :mod:`repro.baselines` — the Overlay post-processing baseline;
* :mod:`repro.experiments` — the declarative experiments layer:
  :class:`~repro.experiments.ExperimentSpec` grids run by an
  :class:`~repro.experiments.ExperimentRunner` (serial or
  process-parallel, resumable via a content-addressed
  :class:`~repro.experiments.RunStore`), plus the drivers regenerating
  every paper table/figure (``python -m repro.experiments
  --list-strategies`` shows every registered strategy, plugins included).

Quick start — the one-liner session::

    import repro
    from repro.datasets import load_dataset

    data = load_dataset("adult")
    result = (
        repro.edit(data)
        .with_rules("age < 29 AND education = 'bachelors' => >50K")
        .with_algorithm("RF")
        .configure(tau=30, q=0.5)
        .run()
    )
    edited_model = result.model

Plugging in a custom strategy — register it, then name it in the config::

    from repro.engine import register_selector

    @register_selector("first-k")
    class FirstKSelector:
        def select(self, bp, eta, ctx):
            import numpy as np
            return [np.arange(min(eta, pop.size)) for pop in bp.per_rule]

    result = repro.edit(data).with_rules(rule).with_algorithm("LR") \\
        .configure(selection="first-k").run()
"""

from repro.core import (
    Evaluation,
    FroteConfig,
    FroteResult,
    IterationRecord,
    evaluate_model,
)
from repro.data import (
    Dataset,
    Migration,
    Schema,
    SchemaDelta,
    SchemaMigrationError,
    SchemaVersion,
    Table,
    make_schema,
)
from repro.engine import (
    MODIFIERS,
    OBJECTIVES,
    SAMPLERS,
    SELECTORS,
    EditEngine,
    EditSession,
    ProgressEvent,
    edit,
    register_modifier,
    register_objective,
    register_sampler,
    register_selector,
)
from repro.feedback import (
    AGGREGATION_POLICIES,
    FeedbackAggregator,
    QueueFeedbackSource,
    RuleProposal,
    RuleSetDelta,
    RuleVerdict,
    ScriptedFeedbackSource,
    register_aggregation_policy,
)
from repro.rules import (
    Clause,
    FeedbackRule,
    FeedbackRuleSet,
    Predicate,
    clause,
    parse_rule,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    "edit",
    "EditSession",
    "EditEngine",
    "ProgressEvent",
    "SELECTORS",
    "MODIFIERS",
    "SAMPLERS",
    "OBJECTIVES",
    "register_selector",
    "register_modifier",
    "register_sampler",
    "register_objective",
    "FroteConfig",
    "FroteResult",
    "IterationRecord",
    "Evaluation",
    "evaluate_model",
    "Dataset",
    "Table",
    "Schema",
    "make_schema",
    "SchemaDelta",
    "Migration",
    "SchemaVersion",
    "SchemaMigrationError",
    "Predicate",
    "Clause",
    "clause",
    "FeedbackRule",
    "FeedbackRuleSet",
    "parse_rule",
    "AGGREGATION_POLICIES",
    "FeedbackAggregator",
    "QueueFeedbackSource",
    "RuleProposal",
    "RuleSetDelta",
    "RuleVerdict",
    "ScriptedFeedbackSource",
    "register_aggregation_policy",
]
