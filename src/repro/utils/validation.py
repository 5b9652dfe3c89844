"""Input validation helpers shared across the library."""

from __future__ import annotations

import numpy as np


def check_array_2d(X, *, name: str = "X", dtype=np.float64) -> np.ndarray:
    """Coerce ``X`` to a 2-D ndarray of ``dtype`` with finite values."""
    arr = np.asarray(X, dtype=dtype)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_array_1d(y, *, name: str = "y", dtype=None) -> np.ndarray:
    """Coerce ``y`` to a 1-D ndarray."""
    arr = np.asarray(y) if dtype is None else np.asarray(y, dtype=dtype)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    return arr


def check_fit_inputs(
    X, y, n_classes: int | None, *, model: str
) -> tuple[np.ndarray, np.ndarray, int]:
    """Validate a classifier's training set; resolve ``n_classes``.

    ``model`` names the estimator in the empty-dataset error.  Labels must
    lie in ``[0, n_classes)``; ``n_classes`` defaults to ``max(y) + 1``.
    """
    X = check_array_2d(X, name="X")
    y = check_array_1d(y, name="y", dtype=np.int64)
    if X.shape[0] != y.shape[0]:
        raise ValueError("X and y have different numbers of rows")
    if X.shape[0] == 0:
        raise ValueError(f"cannot fit a {model} on an empty dataset")
    if n_classes is None:
        n_classes = int(y.max()) + 1
    check_labels(y, n_classes)
    return X, y, n_classes


def check_labels(y: np.ndarray, n_classes: int) -> None:
    """Require every label of ``y`` to lie in ``[0, n_classes)``."""
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got [{y.min()}, {y.max()}]"
        )


def check_predict_input(X, n_features: int) -> np.ndarray:
    """Validate a fitted classifier's input: :func:`check_array_2d`, then
    the ``n_features`` columns it was fitted on."""
    X = check_array_2d(X, name="X")
    if X.shape[1] != n_features:
        raise ValueError(
            f"X has {X.shape[1]} features, but the model was fitted on {n_features}"
        )
    return X


def check_fraction(value: float, *, name: str, inclusive_low: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1] if not inclusive)."""
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    if not (low_ok and value <= 1.0):
        bracket = "[0, 1]" if inclusive_low else "(0, 1]"
        raise ValueError(f"{name} must be in {bracket}, got {value}")
    return value


def check_positive_int(value: int, *, name: str) -> int:
    """Validate that ``value`` is a positive integer."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)
