"""From-scratch classifiers and the black-box training-algorithm wrapper.

The three model families the paper evaluates — random forest, logistic
regression, and a LightGBM-style GBDT — plus the online logistic regression
used by the supplement's objective-approximation proxy.

Models are registered by name in :data:`MODELS`, an
:class:`~repro.engine.registry.InfoRegistry`.  Register your own and every
experiment surface (``ExperimentSpec``, drivers, CLI) accepts the name::

    from repro.models import register_model

    register_model("MLP", lambda: MyMLP(hidden=64), standardize=True)
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.engine.registry import InfoRegistry
from repro.models.base import (
    MatrixClassifier,
    TableModel,
    TrainingAlgorithm,
    make_algorithm,
    predict_from_proba,
)
from repro.models.boosting import GradientBoostingClassifier
from repro.models.forest import RandomForestClassifier
from repro.models.knn import KNeighborsClassifier
from repro.models.logistic import LogisticRegression, softmax
from repro.models.naive_bayes import GaussianNB
from repro.models.online import OnlineLogisticRegression
from repro.models.tree import DecisionTreeClassifier

__all__ = [
    "MatrixClassifier",
    "TableModel",
    "TrainingAlgorithm",
    "make_algorithm",
    "predict_from_proba",
    "LogisticRegression",
    "softmax",
    "DecisionTreeClassifier",
    "RandomForestClassifier",
    "GradientBoostingClassifier",
    "OnlineLogisticRegression",
    "GaussianNB",
    "KNeighborsClassifier",
    "ModelInfo",
    "MODELS",
    "register_model",
    "algorithm",
    "paper_algorithm",
]


@dataclass(frozen=True)
class ModelInfo:
    """Registry entry: zero-argument classifier factory plus training hints.

    ``standardize`` — wrap training with feature standardization (distance-
    and likelihood-based models want it; trees are scale-invariant).
    ``paper`` — one of the paper's three §5.1 configurations.
    """

    name: str
    factory: Callable[[], object]
    standardize: bool = False
    paper: bool = False


#: Live model registry; supports ``MODELS[name]`` / ``in`` / iteration.
MODELS: InfoRegistry = InfoRegistry("model")


def register_model(
    name: str,
    factory: Callable[[], object],
    *,
    standardize: bool = False,
    paper: bool = False,
    overwrite: bool = False,
) -> ModelInfo:
    """Register a classifier factory under ``name``; returns its entry."""
    info = ModelInfo(name, factory, standardize=standardize, paper=paper)
    MODELS.register(name, info, overwrite=overwrite)
    return info


# The paper's three model configurations (§5.1): scikit-learn defaults with
# max_iter=500 for LR, max_depth=3 for RF, LightGBM defaults.
register_model("LR", lambda: LogisticRegression(max_iter=500),
               standardize=True, paper=True)
register_model("RF", lambda: RandomForestClassifier(max_depth=3, random_state=42),
               paper=True)
register_model("LGBM", lambda: GradientBoostingClassifier(), paper=True)

# Extension models (beyond the paper) for the model-agnostic ablations.
register_model("NB", lambda: GaussianNB(), standardize=True)
register_model("KNN", lambda: KNeighborsClassifier(k=5), standardize=True)


def algorithm(name: str, *, warm_start: bool = False) -> TrainingAlgorithm:
    """Training algorithm for any registered model (did-you-mean errors).

    ``warm_start=True`` seeds each refit's optimizer with the previous
    fit's coefficients for estimators that support it (``"LR"``); see
    :func:`repro.models.base.make_algorithm`.  Opt-in: the default path
    cold-starts every fit and stays parity-pinned.

    The returned callable's ``identity`` is the ``algorithm`` field of a
    journaled run's identity, so a journal resumes only under the model
    that wrote it: the registered name, ``warm_start``, the estimator's
    class (``module.qualname``), its constructor parameters (read back
    from the attributes of the same names; a value that is not a plain
    scalar is named by its type) and ``standardize``.  A name registered
    again to another estimator therefore names another algorithm.
    """
    info: ModelInfo = MODELS[name]
    fit = make_algorithm(
        info.factory, standardize=info.standardize, warm_start=warm_start
    )
    estimator = info.factory()
    fit.identity = {  # type: ignore[attr-defined]
        "model": name,
        "warm_start": warm_start,
        "estimator": _qualified_name(type(estimator)),
        "params": {
            param: _param_identity(getattr(estimator, param))
            for param in inspect.signature(type(estimator)).parameters
            if hasattr(estimator, param)
        },
        "standardize": info.standardize,
    }
    return fit


def _qualified_name(kind: type) -> str:
    return f"{kind.__module__}.{kind.__qualname__}"


def _param_identity(value: object) -> object:
    """A constructor parameter as a run identity holds it: plain scalars
    (and lists of them) as they are, anything else by its type."""
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_param_identity(v) for v in value]
    return _qualified_name(type(value))


def paper_algorithm(name: str) -> TrainingAlgorithm:
    """Training algorithm for a model registered with ``paper=True``
    (the built-ins are the paper's LR/RF/LGBM)."""
    if name not in MODELS or not MODELS[name].paper:
        paper = sorted(n for n in MODELS if MODELS[n].paper)
        raise KeyError(f"unknown model {name!r}; choose from {paper}")
    return algorithm(name)
