"""The fluent editing façade: ``repro.edit(dataset)...run()``.

:class:`EditSession` assembles an :class:`~repro.engine.state.EditState`
and an :class:`~repro.engine.stages.EditEngine` from chained configuration
calls::

    result = (
        repro.edit(data)
        .with_rules("age < 29 AND education = 'bachelors' => >50K")
        .with_algorithm("RF")
        .configure(tau=30, q=0.5)
        .on_iteration(lambda ev: print(ev.iteration, ev.kind))
        .run()
    )

Sessions support incremental rule addition (each ``with_rules`` call
appends — the multi-expert scenario), warm-starting from a prior
:class:`~repro.engine.state.FroteResult`, structured progress events, and
fully pluggable strategies/stages.  ``run()`` leaves the session reusable:
calling it again replays the same edit (same seed), while
``resume_from(result)`` continues augmenting where a previous run stopped.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.data.dataset import Dataset
from repro.engine.stages import EditEngine, Stage
from repro.engine.state import EditState, EventListener, FroteResult, ProgressEvent
from repro.rules.rule import FeedbackRule
from repro.rules.ruleset import FeedbackRuleSet


class EditSession:
    """Builder for one model edit over ``dataset``.

    Every ``with_*`` / ``configure`` / ``on_*`` method returns ``self`` so
    calls chain; nothing heavy happens until :meth:`run`.
    """

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._rules: list[FeedbackRule] = []
        self._algorithm: Callable[[Dataset], Any] | None = None
        self._config_kwargs: dict[str, Any] = {}
        self._listeners: list[EventListener] = []
        self._eval_callback: Callable[[Any], float] | None = None
        self._selector: Any = None
        self._engine: EditEngine | None = None
        self._stages: tuple[Stage, ...] | None = None
        self._prior: FroteResult | None = None
        self._resolve_strategy: str | None = None
        # Streaming feedback (see with_feedback / with_scheduled_rules).
        self._feedback_enabled = False
        self._feedback_sources: list[Any] = []
        self._feedback_policy: Any = "unanimous"
        self._feedback_policy_kwargs: dict[str, Any] = {}
        self._feedback_resolve: str = "carve"
        self._feedback_mixture_weight: float = 0.5
        self._scheduled_rules: dict[int, list[Any]] = {}
        self._schema_migrations: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------ #
    # Rules (incremental — the multi-expert scenario).
    def with_rules(self, *rules: Any) -> "EditSession":
        """Append feedback rules: :class:`FeedbackRule` objects, whole
        :class:`FeedbackRuleSet` s, plain rule strings (parsed against the
        dataset's schema), or iterables of any of those."""
        for rule in rules:
            self._add_rule(rule)
        return self

    def _add_rule(self, rule: Any) -> None:
        self._rules.extend(self._coerce_rules(rule))

    def _coerce_rules(self, rule: Any) -> list[FeedbackRule]:
        if isinstance(rule, FeedbackRule):
            return [rule]
        if isinstance(rule, FeedbackRuleSet):
            return list(rule)
        if isinstance(rule, str):
            from repro.rules.parser import parse_rule

            return [parse_rule(rule, self.dataset.X.schema, self.dataset.label_names)]
        if isinstance(rule, Iterable):
            out: list[FeedbackRule] = []
            for r in rule:
                out.extend(self._coerce_rules(r))
            return out
        raise TypeError(
            f"cannot interpret {type(rule).__name__} as a feedback rule; "
            "pass a FeedbackRule, FeedbackRuleSet, rule string, or an "
            "iterable of those"
        )

    def resolve_conflicts(self, strategy: str = "carve") -> "EditSession":
        """Resolve overlapping contradictory rules at run time
        (``"carve"`` or ``"mixture"``, paper §3.1)."""
        self._resolve_strategy = strategy
        return self

    # ------------------------------------------------------------------ #
    # Streaming feedback (rules arriving *during* the run).
    def with_feedback(
        self,
        *sources: Any,
        policy: Any = None,
        resolve: str | None = None,
        mixture_weight: float | None = None,
        **policy_kwargs: Any,
    ) -> "EditSession":
        """Attach streaming feedback sources (see :mod:`repro.feedback`).

        Each source is polled at every iteration boundary; its
        proposals/verdicts flow through a
        :class:`~repro.feedback.aggregate.FeedbackAggregator` (``policy``
        — registry name or instance, default ``"unanimous"``;
        ``policy_kwargs`` forward to a named policy's constructor), and
        approved rules land on the running engine as
        :class:`~repro.feedback.delta.RuleSetDelta` s — append deltas
        when coverage-compatible, carve-out rebuilds (``resolve``:
        ``"carve"`` or ``"mixture"``) otherwise.  Rules apply at
        iteration boundaries only, never mid-iteration.  A session may
        start with no batch rules at all: the run begins with an empty
        rule set and rules stream in.
        """
        self._feedback_enabled = True
        for source in sources:
            if not hasattr(source, "poll"):
                raise TypeError(
                    f"feedback source must expose poll(iteration); got "
                    f"{type(source).__name__}"
                )
            self._feedback_sources.append(source)
        if policy is not None:
            self._feedback_policy = policy
        if policy_kwargs:
            self._feedback_policy_kwargs.update(policy_kwargs)
        if resolve is not None:
            self._feedback_resolve = resolve
        if mixture_weight is not None:
            self._feedback_mixture_weight = float(mixture_weight)
        return self

    def with_scheduled_rules(self, iteration: int, *rules: Any) -> "EditSession":
        """Schedule rules to activate at iteration boundary ``iteration``.

        The rules are held by the session ("present but inactive") and
        applied unconditionally — no aggregation — the first time the
        loop reaches that boundary, through the same delta path streamed
        rules take.  This is the reference half of the streamed-parity
        contract: a run receiving an append-only rule from a source at
        iteration k is bit-identical to one scheduling it at k.
        """
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        self._feedback_enabled = True
        bucket = self._scheduled_rules.setdefault(int(iteration), [])
        for rule in rules:
            bucket.extend(self._coerce_scheduled(rule))
        return self

    def _coerce_scheduled(self, rule: Any) -> list[Any]:
        """Like :meth:`_coerce_rules`, but rule strings referencing columns
        the dataset does not define yet defer instead of failing — they
        park in the pipeline until a scheduled migration lands the column
        (see :meth:`with_schema_migration`)."""
        if isinstance(rule, str):
            from repro.feedback.sources import parse_rule_or_defer

            return [
                parse_rule_or_defer(
                    rule, self.dataset.X.schema, self.dataset.label_names
                )
            ]
        if isinstance(rule, Iterable) and not isinstance(rule, (FeedbackRule, FeedbackRuleSet)):
            out: list[Any] = []
            for r in rule:
                out.extend(self._coerce_scheduled(r))
            return out
        return self._coerce_rules(rule)

    def with_schema_migration(self, iteration: int, *deltas: Any) -> "EditSession":
        """Schedule feature-space migrations at iteration boundary
        ``iteration``.

        Each delta is a :class:`~repro.data.evolution.SchemaDelta` (or a
        whole :class:`~repro.data.evolution.Migration`, expanded in
        order).  At the boundary they replay over the live run — active
        dataset, rules, fitted model, caches — through
        :func:`repro.engine.migration.apply_schema_delta`, *before* any
        rule scheduled or streamed at the same boundary, so a rule
        referencing a just-landed column applies in the same drain.
        Journaled runs persist every applied delta and fast-forward
        through migrations bit-identically on crash-resume.
        """
        if iteration < 0:
            raise ValueError(f"iteration must be >= 0, got {iteration}")
        from repro.data.evolution import Migration, SchemaDelta

        self._feedback_enabled = True
        bucket = self._schema_migrations.setdefault(int(iteration), [])
        for delta in deltas:
            if isinstance(delta, SchemaDelta):
                bucket.append(delta)
            elif isinstance(delta, Migration):
                bucket.extend(delta.deltas)
            else:
                raise TypeError(
                    "with_schema_migration accepts SchemaDelta or Migration "
                    f"objects; got {type(delta).__name__}"
                )
        return self

    # ------------------------------------------------------------------ #
    # Algorithm and knobs.
    def with_algorithm(self, algorithm: Any) -> "EditSession":
        """The black-box trainer: a ``Dataset -> model`` callable, or one
        of the paper's names (``"LR"``, ``"RF"``, ``"LGBM"``, ...)."""
        if isinstance(algorithm, str):
            from repro.models import paper_algorithm

            algorithm = paper_algorithm(algorithm)
        if not callable(algorithm):
            raise TypeError("algorithm must be callable: Dataset -> model")
        self._algorithm = algorithm
        return self

    def configure(self, **kwargs: Any) -> "EditSession":
        """Set :class:`~repro.core.config.FroteConfig` fields; successive
        calls merge (later wins), validated when :meth:`run` builds the
        config."""
        self._config_kwargs.update(kwargs)
        return self

    def incremental(self, enabled: bool = True) -> "EditSession":
        """Opt into the delta-proportional compute path (sugar for
        ``configure(incremental=True)``): O(batch) partial model refits
        where supported and delta-extended prediction caches.  See :class:`~repro.core.config.FroteConfig`
        for the exactness contract."""
        self._config_kwargs["incremental"] = enabled
        return self

    def out_of_core(
        self,
        max_resident_mb: float,
        *,
        shard_rows: int | None = None,
        spill_dir: str | None = None,
    ) -> "EditSession":
        """Opt into out-of-core sharded storage for the active dataset
        (sugar for ``configure(max_resident_mb=...)``).

        The active dataset's column buffers are sharded into
        ``shard_rows``-row chunks; sealed chunks beyond the
        ``max_resident_mb`` budget spill to memory-mapped files under
        ``spill_dir`` (default: the platform temp dir) and stream back
        on demand.  Results are bit-identical to the dense path.  The
        budget bounds the dataset's *storage* footprint — a full model
        fit still materializes a transient O(n) encoded matrix — so
        pair with :meth:`incremental` and a partial-update model to keep
        full refits off the hot loop (see
        :class:`~repro.core.config.FroteConfig`).
        """
        # Only set the knobs the caller actually passed — configure()
        # documents merge semantics, and a bare out_of_core(budget) must
        # not clobber a shard_rows/spill_dir from an earlier call.
        self._config_kwargs["max_resident_mb"] = max_resident_mb
        if shard_rows is not None:
            self._config_kwargs["shard_rows"] = shard_rows
        if spill_dir is not None:
            self._config_kwargs["spill_dir"] = spill_dir
        return self

    def journaled(
        self,
        journal_dir: str,
        *,
        name: str | None = None,
        resume: bool = True,
    ) -> "EditSession":
        """Opt into the durable run journal (sugar for
        ``configure(journal_dir=...)``).

        :meth:`run` then appends every iteration — verdict, losses,
        stage timings, accepted batch rows, RNG state — to an
        append-only crash-safe journal at ``journal_dir/name`` and, on
        re-run, fast-forwards through already-committed iterations
        instead of recomputing them (journal-based crash-resume; see
        :mod:`repro.journal` for the exactness contract).  Requires an
        integer ``random_state`` when ``resume`` is on.  Pass
        ``resume=False`` to wipe any prior journal and start fresh.
        """
        self._config_kwargs["journal_dir"] = str(journal_dir)
        self._config_kwargs["journal_resume"] = resume
        if name is not None:
            self._config_kwargs["journal_name"] = name
        return self

    def with_selector(self, selector: Any) -> "EditSession":
        """Use a selection strategy directly (bypasses the registry; handy
        for one-off strategies and tests).

        Accepts either a strategy *instance* (an object with ``select``) or
        a zero-argument *factory* returning one.  Pass a factory when the
        strategy keeps state across ``select`` calls: an instance is shared
        by every ``run()`` of this session, while a factory builds a fresh
        strategy per run, keeping reruns seed-identical.
        """
        self._selector = selector
        return self

    def with_stages(self, *stages: Stage) -> "EditSession":
        """Replace the per-iteration stage chain of the default engine."""
        self._stages = tuple(stages)
        return self

    def with_engine(self, engine: EditEngine) -> "EditSession":
        """Use a fully custom :class:`EditEngine` (overrides
        :meth:`with_stages`)."""
        self._engine = engine
        return self

    # ------------------------------------------------------------------ #
    # Progress.
    def on_event(self, listener: EventListener) -> "EditSession":
        """Subscribe to every :class:`ProgressEvent` the engine emits."""
        self._listeners.append(listener)
        return self

    def on_iteration(self, listener: EventListener) -> "EditSession":
        """Subscribe to per-iteration events (accepted / rejected /
        empty-batch)."""

        def filtered(event: ProgressEvent) -> None:
            if event.record is not None:
                listener(event)

        self._listeners.append(filtered)
        return self

    def on_accept(self, listener: EventListener) -> "EditSession":
        """Subscribe to accepted-batch events only."""

        def filtered(event: ProgressEvent) -> None:
            if event.accepted:
                listener(event)

        self._listeners.append(filtered)
        return self

    def track_metric(self, scorer: Callable[[Any], float]) -> "EditSession":
        """Score every accepted model (e.g. on held-out data); the value is
        recorded as ``external_score`` in the iteration history."""
        self._eval_callback = scorer
        return self

    # ------------------------------------------------------------------ #
    # Warm start.
    def resume_from(self, prior: FroteResult) -> "EditSession":
        """Continue augmenting from a prior result: start at its dataset,
        carry its history/provenance, and keep its quota accounting."""
        self._prior = prior
        return self

    # ------------------------------------------------------------------ #
    def build_state(self) -> EditState:
        """Assemble the initial :class:`EditState` (exposed for tests and
        custom drivers)."""
        # Imported here: repro.core.config consults the engine registries at
        # import time, so importing it at module level would be circular.
        from repro.core.config import FroteConfig
        from repro.utils.rng import check_random_state

        if self._algorithm is None:
            raise ValueError(
                "no training algorithm; call .with_algorithm('RF') or pass "
                "a Dataset -> model callable"
            )
        if not self._rules and not self._feedback_enabled:
            raise ValueError(
                "no feedback rules; call .with_rules(...) first (or attach "
                "a stream with .with_feedback(...))"
            )
        frs = FeedbackRuleSet(tuple(self._rules))
        if self._resolve_strategy is not None:
            frs = frs.resolve_conflicts(
                self.dataset.X.schema, strategy=self._resolve_strategy
            )
        config = FroteConfig(**self._config_kwargs)
        selector = self._selector
        if selector is not None and (
            isinstance(selector, type)
            or (callable(selector) and not hasattr(selector, "select"))
        ):
            selector = selector()  # factory form: fresh strategy per run
        state = EditState(
            input_dataset=self.dataset,
            frs=frs,
            algorithm=self._algorithm,
            config=config,
            rng=check_random_state(config.random_state),
            selector=selector,
            eval_callback=self._eval_callback,
            listeners=list(self._listeners),
        )
        if self._prior is not None:
            prior = self._prior
            state.warm_start = True
            state.active = prior.dataset
            state.history = list(prior.history)
            state.iteration = prior.iterations
            state.n_added = prior.n_added
            state.n_relabelled = prior.n_relabelled
            state.n_dropped = prior.n_dropped
            state.provenance = prior.provenance
        if self._feedback_enabled:
            from repro.feedback.pipeline import FeedbackPipeline

            # A fresh pipeline per run keeps reruns deterministic;
            # scripted sources rewind, live queue sources keep whatever
            # has been pushed (their feeds are external inputs).
            for source in self._feedback_sources:
                reset = getattr(source, "reset", None)
                if callable(reset):
                    reset()
            state.feedback = FeedbackPipeline(
                list(self._feedback_sources),
                policy=self._feedback_policy,
                policy_kwargs=dict(self._feedback_policy_kwargs),
                resolve=self._feedback_resolve,
                mixture_weight=self._feedback_mixture_weight,
                schedule={
                    it: list(rules) for it, rules in self._scheduled_rules.items()
                },
                migrations={
                    it: list(deltas)
                    for it, deltas in self._schema_migrations.items()
                },
            )
        return state

    def build_engine(self) -> EditEngine:
        if self._engine is not None:
            return self._engine
        stages: tuple[Stage, ...] | None = self._stages
        if self._feedback_enabled:
            from repro.engine.stages import FeedbackStage, default_stages

            return EditEngine(
                stages=(FeedbackStage(), *(stages if stages is not None else default_stages()))
            )
        if stages is not None:
            return EditEngine(stages=stages)
        return EditEngine()

    def run(self) -> FroteResult:
        """Execute the edit and return the :class:`FroteResult`.

        With ``journal_dir`` configured (see :meth:`journaled`) the run
        is journaled and crash-resumable; the result is identical
        either way.
        """
        if self._config_kwargs.get("journal_dir"):
            from repro.journal.replay import run_journaled

            return run_journaled(self)
        return self.build_engine().run(self.build_state())


def edit(dataset: Dataset) -> EditSession:
    """Start an :class:`EditSession` on ``dataset`` (the library's
    one-liner entry point: ``repro.edit(data).with_rules(...).run()``)."""
    return EditSession(dataset)
