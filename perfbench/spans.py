"""Spans around calls into each layer's public functions, from outside.

The program has no spans of its own, so the traced run wraps the public
entry points of each layer (``models``, ``data``, ``neighbors``,
``sampling``, ``core``) for the duration of one edit session and
restores them afterwards.  Span names are ``<layer>.<what>``.  Spans
nest (a stage contains a fit, a fit contains an encode), so each span
records its inclusive time and its self time, the part of its interval
no traced child covers; the self times of all spans plus the time
outside every top-level span add up to the session's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

_MISSING = object()

# Engine stage class -> span name; ProgressEvent.stage_seconds times the
# same interval.
STAGE_SPANS = {
    "PreselectStage": "engine.preselect",
    "SelectionStage": "engine.select",
    "GenerationStage": "engine.generate",
    "AcceptanceStage": "engine.accept",
}


class Tracer:
    """In-memory span recorder: totals per span name, never a timeline."""

    def __init__(self) -> None:
        self._stack: list[list[Any]] = []  # [name, start, child seconds]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.top_level = 0.0  # seconds inside spans that have no parent
        self._undo: list[tuple[Any, str, Any]] = []

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top_level += dur

    def wrap(
        self,
        fn: Callable,
        name: str,
        counter: str | None = None,
        amount: Callable[[tuple, Any], int] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``; ``counts[counter]`` grows by
        ``amount(args, result)`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                self.counts[counter] += amount(args, out)
            return out

        return traced

    def patch(self, owner: Any, attr: str, name: str, counter=None, amount=None) -> None:
        """Replace ``owner.attr`` (a class method or module function) by
        its traced version until :meth:`uninstall`."""
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter, amount))

    def patch_function(self, module: Any, attr: str, name: str) -> None:
        """Trace a module-level function in every ``repro`` module that
        imported it by name."""
        original = getattr(module, attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and getattr(mod, attr, None) is original:
                self.patch(mod, attr, name)

    def install(self) -> None:
        """Wrap every layer's public calls (engine stages are wrapped per
        engine by :meth:`wrap_stages`)."""
        import repro.core.ip
        import repro.core.objective
        import repro.core.selection  # noqa: F401  (binds the names patched below)
        import repro.engine.stages  # noqa: F401
        import repro.sampling.borderline
        from repro.data.encoding import TabularEncoder
        from repro.models import (
            KNeighborsClassifier,
            LogisticRegression,
            RandomForestClassifier,
            TableModel,
        )
        from repro.neighbors.balltree import BallTree
        from repro.neighbors.brute import BruteKNN
        from repro.sampling.rule_generation import RuleConstrainedGenerator

        def rows(args, out):
            return args[1].n_rows

        # predict() delegates to predict_proba(), so this covers both.
        self.patch(TableModel, "predict_proba", "models.predict", "models.predict_rows", rows)
        self.patch(
            LogisticRegression, "fit", "models.estimator_fit",
            "models.lbfgs_iters", lambda args, out: args[0].n_iter_ or 0,
        )
        for estimator in (RandomForestClassifier, KNeighborsClassifier):
            self.patch(estimator, "fit", "models.estimator_fit")
        self.patch(TabularEncoder, "fit", "data.encode")
        self.patch(TabularEncoder, "transform", "data.encode", "data.encode_rows", rows)
        for index in (BallTree, BruteKNN):
            self.patch(index, "fit", "neighbors.build")
            self.patch(
                index, "kneighbors", "neighbors.query",
                "neighbors.queries", lambda args, out: len(args[1]),
            )
        self.patch(
            RuleConstrainedGenerator, "generate", "sampling.generate",
            "sampling.rows_generated", lambda args, out: out.n,
        )
        self.patch_function(repro.sampling.borderline, "classify_borderline", "sampling.borderline")
        self.patch_function(repro.core.ip, "solve_selection", "core.ip_solve")
        self.patch_function(repro.core.objective, "evaluate_predictions", "core.evaluate")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._stack.clear()

    def wrap_stages(self, engine: Any) -> None:
        for stage in engine.stages:
            cls = type(stage).__name__
            stage.run = self.wrap(stage.run, STAGE_SPANS.get(cls, f"engine.{cls}"))

    def wrap_algorithm(self, algorithm: Callable) -> Callable:
        """The ``TrainingAlgorithm`` handed to ``with_algorithm``."""
        return self.wrap(algorithm, "models.fit", "models.fit_rows", lambda args, out: args[0].n)

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "top_level": self.top_level,
        }
