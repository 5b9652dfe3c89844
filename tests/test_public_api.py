"""The public API surface advertised in the README must exist and work."""

import pytest


class TestImports:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_version(self):
        import repro

        assert repro.__version__

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.core
        import repro.data
        import repro.datasets
        import repro.engine
        import repro.experiments
        import repro.metrics
        import repro.models
        import repro.neighbors
        import repro.rules
        import repro.sampling
        import repro.utils

    def test_import_loads_no_scipy(self):
        """SciPy loads on first use (the LP solver, the L-BFGS fit), so a
        run with another model and its worker processes start without it."""
        import os
        import subprocess
        import sys

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        code = "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src_dir},
        )
        assert out.stdout.strip() == "[]"

    def test_subpackage_alls_resolve(self):
        import importlib

        for mod_name in (
            "repro.data",
            "repro.rules",
            "repro.models",
            "repro.core",
            "repro.engine",
            "repro.sampling",
            "repro.neighbors",
            "repro.metrics",
            "repro.datasets",
            "repro.baselines",
            "repro.experiments",
            "repro.utils",
        ):
            mod = importlib.import_module(mod_name)
            for name in getattr(mod, "__all__", []):
                assert hasattr(mod, name), f"{mod_name} missing {name}"

    def test_result_types_exported_from_one_home(self):
        import repro
        import repro.core
        from repro.engine import state

        for name in ("FroteResult", "IterationRecord"):
            home = getattr(state, name)
            assert getattr(repro, name) is home
            assert getattr(repro.core, name) is home


class TestRemovedNamesFailLoudly:
    """Names deleted with the compatibility layer fail at first use."""

    @staticmethod
    def _removed_backend():
        import repro
        from repro import FroteConfig

        from tests.conftest import make_tiny_dataset

        with pytest.raises(TypeError, match="distance_backend"):
            FroteConfig(distance_backend="numpy")
        session = (
            repro.edit(make_tiny_dataset())
            .with_rules("x1 > 0 => pos")
            .with_algorithm("LR")
            .configure(distance_backend="numpy")
        )
        with pytest.raises(TypeError, match="distance_backend"):
            session.build_state()

    @staticmethod
    def _removed_backend_keywords():
        from repro.neighbors import BruteKNN, MixedMetric
        from repro.sampling import SMOTE

        metric = MixedMetric([False, True])
        with pytest.raises(TypeError, match="backend"):
            BruteKNN(metric, backend="numpy")
        with pytest.raises(TypeError, match="distance_backend"):
            SMOTE(5, distance_backend="numpy")

    @staticmethod
    def _removed_kernel_exports():
        import repro.engine
        import repro.neighbors

        for name in (
            "DISTANCE_BACKENDS",
            "register_distance_backend",
            "kneighbors_blocked",
            "CodedLayout",
        ):
            assert not hasattr(repro.engine, name)
            assert not hasattr(repro.neighbors, name)

    @staticmethod
    def _option_group_kwarg():
        from repro import FroteConfig

        with pytest.raises(TypeError):
            FroteConfig(storage={"max_resident_mb": 64})

    @staticmethod
    def _legacy_exports():
        import repro

        assert not hasattr(repro, "FROTE")
        assert not hasattr(repro, "StorageOptions")

    @staticmethod
    def _bump_dataset_version():
        from repro.engine import EditState

        with pytest.raises(AttributeError, match="bump_dataset_version"):
            EditState().bump_dataset_version()

    @staticmethod
    def _delta_journal():
        import importlib

        import repro.engine
        from repro.engine import EditState

        for name in ("DeltaJournal", "DatasetDelta"):
            assert not hasattr(repro.engine, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.delta")
        state = EditState()
        for name in ("journal", "record_schema_delta", "predict_cached"):
            with pytest.raises(AttributeError, match=name):
                getattr(state, name)
        with pytest.raises(TypeError):
            state.record_append(3, "accepted-batch")

    @staticmethod
    def _knn_algorithm_keyword():
        from repro.models import KNeighborsClassifier

        for algorithm in ("ball_tree", "brute"):
            with pytest.raises(TypeError, match="algorithm"):
                KNeighborsClassifier(k=3, algorithm=algorithm)

    @staticmethod
    def _registry_snapshots():
        import repro.experiments
        import repro.models

        for name in ("PAPER_MODELS", "EXTENDED_MODELS", "extended_algorithm"):
            assert not hasattr(repro.models, name)
        assert not hasattr(repro.experiments, "PAPER_ETA")

    @staticmethod
    def _population_stale():
        from repro.engine import EditState

        with pytest.raises(AttributeError, match="population_stale"):
            EditState().population_stale
        with pytest.raises(TypeError, match="population_stale"):
            EditState(population_stale=True)

    @staticmethod
    def _run_journaled():
        import repro.journal.replay
        from repro.serve import EditService

        with pytest.raises(ImportError, match="run_journaled"):
            from repro.journal import run_journaled  # noqa: F401
        assert not hasattr(repro.journal.replay, "run_journaled")
        assert not hasattr(EditService, "_session_journal_path")

    @staticmethod
    def _imperative_experiment_path():
        import repro.experiments
        import repro.experiments.runner

        for name in ("run_many", "default_config"):
            assert not hasattr(repro.experiments, name)
            assert not hasattr(repro.experiments.runner, name)

    @staticmethod
    def _evaluation_merge():
        import numpy as np

        import repro.core.objective
        from repro.core.objective import Evaluation

        assert not hasattr(repro.core.objective, "merge_evaluations")
        assert not hasattr(Evaluation, "mergeable")
        with pytest.raises(TypeError, match="per_rule_agreement"):
            Evaluation(np.array([1.0]), np.array([3]), 1.0, 1.0, 3, 0)

    @pytest.mark.parametrize(
        "check",
        [
            "_removed_backend",
            "_removed_backend_keywords",
            "_removed_kernel_exports",
            "_option_group_kwarg",
            "_legacy_exports",
            "_bump_dataset_version",
            "_delta_journal",
            "_knn_algorithm_keyword",
            "_registry_snapshots",
            "_population_stale",
            "_run_journaled",
            "_imperative_experiment_path",
            "_evaluation_merge",
        ],
    )
    def test_removed_name(self, check):
        getattr(self, check)()


class TestReadmeQuickstart:
    def test_docstring_example_runs(self):
        """The module docstring's session quick-start must be executable
        (on a smaller draw, so it stays fast)."""
        import repro
        from repro.datasets import load_dataset

        data = load_dataset("adult", n=400, random_state=0)
        result = (
            repro.edit(data)
            .with_rules("age < 29 AND education = 'bachelors' => >50K")
            .with_algorithm("RF")
            .configure(tau=3, q=0.2, eta=10, random_state=0)
            .run()
        )
        edited_model = result.model
        assert edited_model.predict(data.X).shape == (data.n,)
