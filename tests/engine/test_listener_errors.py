"""A raising progress listener must never corrupt the edit loop.

Listeners are observers: the engine fans ``ProgressEvent`` s out to them
(and, through the serving layer, to per-session queues), so a buggy
listener raising mid-step must not abort or perturb the run.  The
contract: the exception is swallowed and recorded on
``EditState.listener_errors``, a ``RuntimeWarning`` is emitted once per
offending listener, remaining listeners still fire, and the result is
bit-identical to a run without any listeners.
"""

import warnings

import numpy as np
import pytest

import repro


def base_session(dataset, frs, **cfg):
    return (
        repro.edit(dataset)
        .with_rules(frs)
        .with_algorithm("LR")
        .configure(**{"tau": 4, "q": 0.5, "eta": 8, "random_state": 0, **cfg})
    )


def run_with_listeners(dataset, frs, *listeners):
    session = base_session(dataset, frs)
    for listener in listeners:
        session.on_event(listener)
    state = session.build_state()
    engine = session.build_engine()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = engine.run(state)
    return result, state, caught


class TestRaisingListener:
    def test_run_completes_and_result_is_unperturbed(
        self, mixed_dataset, single_rule_frs
    ):
        def bomb(event):
            raise RuntimeError("listener bug")

        clean, _, _ = run_with_listeners(mixed_dataset, single_rule_frs)
        dirty, state, _ = run_with_listeners(mixed_dataset, single_rule_frs, bomb)
        assert dirty.iterations == clean.iterations
        assert dirty.n_added == clean.n_added
        np.testing.assert_array_equal(dirty.dataset.y, clean.dataset.y)
        for name in clean.dataset.X.schema.names:
            np.testing.assert_array_equal(
                dirty.dataset.X.column(name), clean.dataset.X.column(name)
            )
        assert dirty.history == clean.history
        # Every event the engine emitted hit the bomb and was recorded.
        assert state.listener_errors
        kinds = {e.event_kind for e in state.listener_errors}
        assert "started" in kinds and "finished" in kinds
        assert all(
            isinstance(e.error, RuntimeError) for e in state.listener_errors
        )

    def test_later_listeners_still_fire(self, mixed_dataset, single_rule_frs):
        seen = []

        def bomb(event):
            raise ValueError("first in line")

        _, state, _ = run_with_listeners(
            mixed_dataset, single_rule_frs, bomb, lambda e: seen.append(e.kind)
        )
        assert seen[0] == "started"
        assert seen[-1] == "finished"
        assert len(seen) == len(state.listener_errors)

    def test_warns_once_per_listener(self, mixed_dataset, single_rule_frs):
        def bomb_a(event):
            raise RuntimeError("a")

        def bomb_b(event):
            raise RuntimeError("b")

        _, state, caught = run_with_listeners(
            mixed_dataset, single_rule_frs, bomb_a, bomb_b
        )
        listener_warnings = [
            w for w in caught if issubclass(w.category, RuntimeWarning)
            and "progress listener" in str(w.message)
        ]
        # Deduplicated per listener, not per event.
        assert len(listener_warnings) == 2
        assert len(state.listener_errors) > 2

    def test_session_run_path_also_survives(
        self, mixed_dataset, single_rule_frs
    ):
        def bomb(event):
            raise RuntimeError("boom")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = (
                base_session(mixed_dataset, single_rule_frs)
                .on_iteration(bomb)
                .run()
            )
        assert result.iterations > 0

    def test_errors_attribute_event_kind_and_iteration(
        self, mixed_dataset, single_rule_frs
    ):
        """Regression: ``listener_errors`` entries are attributable.

        Entries used to be bare ``(kind, exc)`` tuples, so a consumer gap
        (a journal missing an iteration record, a dropped serving event)
        could not be traced to the failure that caused it.  Each entry is
        now a :class:`ListenerError` carrying the event kind *and* the
        iteration at emission time — while still unpacking like the old
        tuples.
        """
        from repro.engine import ListenerError

        observed = []

        def spy_bomb(event):
            observed.append((event.kind, event.iteration))
            raise RuntimeError("attributable")

        _, state, _ = run_with_listeners(mixed_dataset, single_rule_frs, spy_bomb)
        assert state.listener_errors
        assert all(isinstance(e, ListenerError) for e in state.listener_errors)
        # Every error names exactly the event that triggered it.
        assert [
            (e.event_kind, e.iteration) for e in state.listener_errors
        ] == observed
        iteration_kinds = {"accepted", "rejected", "empty-batch"}
        per_iteration = [
            e for e in state.listener_errors if e.event_kind in iteration_kinds
        ]
        assert [e.iteration for e in per_iteration] == list(
            range(len(per_iteration))
        )

    def test_keyboard_interrupt_propagates(
        self, mixed_dataset, single_rule_frs
    ):
        """Only Exception is swallowed; BaseException must still abort."""

        def interrupt(event):
            raise KeyboardInterrupt

        session = base_session(mixed_dataset, single_rule_frs).on_event(interrupt)
        state = session.build_state()
        with pytest.raises(KeyboardInterrupt):
            session.build_engine().run(state)
