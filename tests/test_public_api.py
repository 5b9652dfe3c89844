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
        from repro import FroteConfig
        from repro.engine import UnknownEntryError

        with pytest.raises(UnknownEntryError, match="numpy"):
            FroteConfig(distance_backend="numba")

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

    @pytest.mark.parametrize(
        "check", ["_removed_backend", "_option_group_kwarg", "_legacy_exports"]
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
