"""Replay parity and crash-resume: the journal is a faithful run record.

Two acceptance criteria from the observability issue, pinned at test
scale:

* **Replay parity** — for seeded sessions across the engine's compute
  modes (default full-refit, ``incremental=True``, out-of-core), the
  history :class:`~repro.journal.SessionReplay` reconstructs *from the
  journal alone* matches the live ``FroteResult.history``
  field-for-field.
* **Crash-resume** — a journaled run SIGKILLed mid-iteration in a
  subprocess, then re-run, fast-forwards its committed iterations and
  finishes with a final dataset bit-identical to the uninterrupted run.
"""

import pickle
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.data import Dataset, Table, make_schema
from repro.journal import JournalReader, JournalResumeError, SessionReplay
from repro.models import LogisticRegression, RandomForestClassifier

from conftest import assert_same_run

SCHEMA = make_schema(
    numeric=["age", "income"],
    categorical={"marital": ("single", "married", "divorced")},
)


def make_dataset(n=250, seed=42):
    rng = np.random.default_rng(seed)
    table = Table(
        SCHEMA,
        {
            "age": rng.uniform(18, 80, n),
            "income": rng.uniform(10, 200, n),
            "marital": rng.integers(0, 3, n),
        },
    )
    y = ((table.column("age") < 40) & (table.column("income") > 100)).astype(
        np.int64
    )
    noise = rng.uniform(size=n) < 0.05
    y[noise] = 1 - y[noise]
    return Dataset(table, y, ("deny", "approve"))


RULES = ("age < 35 => approve", "income < 40 AND marital = 'single' => deny")


def make_session(dataset=None, *, tau=4, seed=42, rules=RULES, **configure):
    return (
        repro.edit(dataset if dataset is not None else make_dataset())
        .with_rules(*rules)
        .with_algorithm("LR")
        .configure(tau=tau, q=0.5, random_state=seed, **configure)
    )


class TestReplayParity:
    @pytest.mark.parametrize(
        "mode, configure",
        [
            ("default", {}),
            ("incremental", {"incremental": True}),
            ("out-of-core", {"max_resident_mb": 0.05, "shard_rows": 64}),
        ],
    )
    def test_history_matches_live_run_field_for_field(
        self, tmp_path, mode, configure
    ):
        result = (
            make_session(**configure).journaled(tmp_path, name=mode).run()
        )
        replay = SessionReplay.load(tmp_path / mode)

        assert replay.truncation is None
        assert replay.history() == result.history  # IterationRecord equality
        assert replay.summary()["iterations"] == result.iterations
        assert replay.summary()["n_added"] == result.n_added
        assert replay.summary()["finished"]
        assert replay.summary()["runs"] == 1
        # The objective trajectory is the monotone best-so-far curve.
        trajectory = replay.objective_trajectory()
        assert trajectory == sorted(trajectory, reverse=True)

    def test_replay_carries_timings_and_rng(self, tmp_path):
        make_session().journaled(tmp_path, name="s").run()
        replay = SessionReplay.load(tmp_path / "s")
        for it in replay.iterations:
            assert it.stage_seconds and it.iteration_seconds > 0
            assert it.rng is not None and "state" in it.rng
        accepted = [it for it in replay.iterations if it.accepted]
        for it in accepted:
            assert it.batch is not None
            assert sum(it.per_rule_counts) == it.n_generated
            assert len(it.batch["labels"]) == it.n_generated
        assert replay.meta["dataset"]["n"] == 250
        assert replay.summary()["seconds"] > 0

    def test_finished_journal_fast_forwards_to_same_result(self, tmp_path):
        first = make_session().journaled(tmp_path, name="s").run()
        again = make_session().journaled(tmp_path, name="s").run()
        assert_same_run(again, first)
        replay = SessionReplay.load(tmp_path / "s")
        assert replay.summary()["resumes"] == 1  # one run-resumed record
        assert replay.summary()["runs"] == 1  # ...extending the same run

    def test_resume_false_starts_fresh(self, tmp_path):
        make_session().journaled(tmp_path, name="s").run()
        make_session().journaled(tmp_path, name="s", resume=False).run()
        replay = SessionReplay.load(tmp_path / "s")
        assert replay.summary()["runs"] == 1
        assert replay.summary()["resumes"] == 0


class TestResumeValidation:
    """Resume refuses journals that belong to a different run, naming the
    run-identity field that differs; each test changes one field alone."""

    @staticmethod
    def refused(tmp_path, rerun, field):
        make_session(tau=2).journaled(tmp_path, name="s").run()
        with pytest.raises(JournalResumeError, match=f"run-meta field '{field}'") as refused:
            rerun.journaled(tmp_path, name="s").run()
        return str(refused.value)

    def test_config_mismatch(self, tmp_path):
        message = self.refused(tmp_path, make_session(tau=5), "config")
        assert "keys ['tau'] differ" in message

    def test_seed_mismatch(self, tmp_path):
        self.refused(tmp_path, make_session(tau=2, seed=2), "random_state")

    def test_dataset_mismatch(self, tmp_path):
        self.refused(tmp_path, make_session(make_dataset(seed=7), tau=2), "dataset")

    def test_rules_mismatch(self, tmp_path):
        other = make_session(tau=2, rules=("age < 30 => approve", RULES[1]))
        self.refused(tmp_path, other, "rules")

    def test_bit_generator_mismatch(self, tmp_path, monkeypatch):
        import repro.utils.rng as rng_module

        make_session(tau=2).journaled(tmp_path, name="s").run()
        monkeypatch.setattr(
            rng_module,
            "check_random_state",
            lambda seed: np.random.Generator(np.random.MT19937(seed)),
        )
        with pytest.raises(JournalResumeError, match="run-meta field 'bit_generator'"):
            make_session(tau=2).journaled(tmp_path, name="s").run()

    def test_start_iteration_mismatch(self, tmp_path):
        prior = make_session(tau=1).run()
        self.refused(tmp_path, make_session(tau=2).resume_from(prior), "start_iteration")

    @pytest.mark.parametrize(
        "model, options", [("RF", {}), ("LR", {"warm_start": True})], ids=["RF", "LR-warm-start"]
    )
    def test_algorithm_mismatch(self, tmp_path, model, options):
        from repro.models import algorithm

        rerun = make_session(tau=2).with_algorithm(algorithm(model, **options))
        self.refused(tmp_path, rerun, "algorithm")

    def test_identity_before_setup_is_the_journaled_one(self, tmp_path):
        from repro.experiments.persistence import to_jsonable
        from repro.journal.writer import run_identity

        session = make_session(tau=2).journaled(tmp_path, name="s")
        before = to_jsonable(run_identity(session.build_state()))
        session.run()
        meta = SessionReplay.load(tmp_path / "s").meta
        assert before == {field: to_jsonable(meta[field]) for field in before}
        assert before["algorithm"] == {
            "model": "LR",
            "warm_start": False,
            "estimator": "repro.models.logistic.LogisticRegression",
            "params": {"C": 1.0, "max_iter": 500, "tol": 1e-06, "warm_start": False},
            "standardize": True,
        }

    @pytest.mark.parametrize(
        "factory, standardize",
        [
            (lambda: RandomForestClassifier(max_depth=3, random_state=42), False),
            (lambda: LogisticRegression(max_iter=100), True),
            (lambda: LogisticRegression(max_iter=500), False),
        ],
        ids=["other-class", "other-params", "other-standardize"],
    )
    def test_reregistered_model_refuses_to_resume(self, tmp_path, factory, standardize):
        """A journal written under a registered name refuses a rerun after
        the name is registered again to another estimator class, other
        constructor parameters or another ``standardize``."""
        from repro.models import MODELS, register_model

        register_model("M", lambda: LogisticRegression(max_iter=500), standardize=True)
        try:
            make_session(tau=2).with_algorithm("M").journaled(tmp_path, name="s").run()
            register_model("M", factory, standardize=standardize, overwrite=True)
            with pytest.raises(JournalResumeError, match="run-meta field 'algorithm'"):
                make_session(tau=2).with_algorithm("M").journaled(tmp_path, name="s").run()
        finally:
            MODELS.unregister("M")

    def test_journal_naming_the_model_by_name_alone_resumes(self, tmp_path, monkeypatch):
        """A journal whose algorithm identity predates the estimator keys
        resumes under the same model."""
        from repro.journal.writer import SessionJournal

        run_meta = SessionJournal._run_meta
        with monkeypatch.context() as patch:
            patch.setattr(
                SessionJournal,
                "_run_meta",
                lambda self, state: {
                    **run_meta(self, state),
                    "algorithm": {"model": "LR", "warm_start": False},
                },
            )
            first = make_session(tau=2).journaled(tmp_path, name="s").run()
        again = make_session(tau=2).journaled(tmp_path, name="s").run()
        assert_same_run(again, first)
        assert SessionReplay.load(tmp_path / "s").summary()["resumes"] == 1

    def test_journal_without_rules_field_resumes(self, tmp_path, monkeypatch):
        """A journal written before run-meta carried the rules and
        algorithm fields resumes as it did then."""
        from repro.journal.writer import SessionJournal

        run_meta = SessionJournal._run_meta
        with monkeypatch.context() as patch:
            patch.setattr(
                SessionJournal,
                "_run_meta",
                lambda self, state: {
                    k: v
                    for k, v in run_meta(self, state).items()
                    if k not in ("rules", "algorithm")
                },
            )
            first = make_session(tau=2).journaled(tmp_path, name="s").run()
        meta = SessionReplay.load(tmp_path / "s").meta
        assert "rules" not in meta and "algorithm" not in meta
        again = make_session(tau=2).journaled(tmp_path, name="s").run()
        assert_same_run(again, first)
        assert SessionReplay.load(tmp_path / "s").summary()["resumes"] == 1

    def test_unseeded_session_cannot_resume(self, tmp_path):
        session = make_session(tau=2)
        session._config_kwargs["random_state"] = None
        session.journaled(tmp_path, name="s").run()
        fresh = make_session(tau=2)
        fresh._config_kwargs["random_state"] = None
        with pytest.raises(JournalResumeError, match="integer random_state"):
            fresh.journaled(tmp_path, name="s").run()

    def test_journal_name_requires_journal_dir(self):
        from repro.core.config import FroteConfig

        with pytest.raises(ValueError, match="journal_name"):
            FroteConfig(journal_name="s")


# --------------------------------------------------------------------- #
# SIGKILL crash-resume (subprocess: a real process dies mid-iteration).
# --------------------------------------------------------------------- #
CHILD = """
import os, signal, sys
sys.path[:0] = [{test_dir!r}, os.path.dirname({test_dir!r})]  # + conftest
from test_replay_parity import make_session

mode, jdir, out = sys.argv[1], sys.argv[2], sys.argv[3]
kill_at_fit = int(os.environ.get("KILL_AT_FIT", "0"))

from repro.models import paper_algorithm
base = paper_algorithm("LR")
fits = 0

def algorithm(dataset):
    global fits
    fits += 1
    if mode == "kill" and fits == kill_at_fit:
        os.kill(os.getpid(), signal.SIGKILL)  # dies mid-iteration
    return base(dataset)

session = make_session(tau=6).with_algorithm(algorithm)
result = session.journaled(jdir, name="crash").run()

import pickle
with open(out, "wb") as fh:
    pickle.dump(result, fh)
"""


def run_child(tmp_path, mode, jdir, out, *, kill_at_fit=0):
    script = tmp_path / "child.py"
    script.write_text(CHILD.format(test_dir=str(Path(__file__).parent)))
    src = str(Path(__file__).resolve().parents[2] / "src")
    import os

    env = dict(os.environ, PYTHONPATH=src, KILL_AT_FIT=str(kill_at_fit))
    return subprocess.run(
        [sys.executable, str(script), mode, str(jdir), str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.slow
class TestCrashResume:
    def test_sigkill_mid_iteration_resumes_bit_identical(self, tmp_path):
        # Reference: the same journaled session, uninterrupted.
        full = run_child(tmp_path, "run", tmp_path / "j-full", tmp_path / "full.pkl")
        assert full.returncode == 0, full.stderr

        # Fit #4 happens inside loop iteration 2 (setup fit + one
        # candidate fit per iteration), so the process dies with two
        # iterations committed and the third in flight.
        crashed = run_child(
            tmp_path, "kill", tmp_path / "j", tmp_path / "unused.pkl",
            kill_at_fit=4,
        )
        assert crashed.returncode == -signal.SIGKILL

        scan = JournalReader(tmp_path / "j" / "crash").scan()
        assert scan.truncation is None or scan.truncation.repairable
        committed = SessionReplay.load(tmp_path / "j" / "crash").committed()
        assert 0 < len(committed) < 6  # partial progress survived the kill

        # Re-running the same spec fast-forwards and finishes the run.
        resumed = run_child(
            tmp_path, "run", tmp_path / "j", tmp_path / "resumed.pkl"
        )
        assert resumed.returncode == 0, resumed.stderr

        with open(tmp_path / "full.pkl", "rb") as fh:
            want = pickle.load(fh)
        with open(tmp_path / "resumed.pkl", "rb") as fh:
            got = pickle.load(fh)
        assert_same_run(got, want)

        replay = SessionReplay.load(tmp_path / "j" / "crash")
        assert replay.summary()["resumes"] == 1
        assert replay.summary()["finished"]
        assert replay.summary()["iterations"] == 6
        # The resumed journal alone reconstructs the full history.
        assert replay.history() == want.history
