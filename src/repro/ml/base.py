"""Abstract interfaces for the ML substrate.

Three roles appear throughout the resource-management stack:

* :class:`Regressor` — batch-trained function approximators used for Oracle
  approximation (offline IL) and explicit-NMPC surface fitting.
* :class:`Classifier` — batch-trained discrete-decision models used when the
  IL policy predicts a configuration index directly.
* :class:`OnlineRegressor` — incrementally updated models (RLS and friends)
  used for runtime power/performance modelling.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np


def as_2d(x: np.ndarray) -> np.ndarray:
    """Coerce ``x`` to a 2-D float array of shape (n_samples, n_features)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D input, got shape {arr.shape}")
    return arr


def as_1d(y: np.ndarray) -> np.ndarray:
    """Coerce ``y`` to a 1-D float array."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr.ravel()
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D target, got shape {arr.shape}")
    return arr


class Regressor(abc.ABC):
    """Batch regression model interface."""

    @abc.abstractmethod
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "Regressor":
        """Fit the model to ``features`` (n, d) and ``targets`` (n,)."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d); returns shape (n,)."""


class Classifier(abc.ABC):
    """Batch classification model interface (integer class labels)."""

    @abc.abstractmethod
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "Classifier":
        """Fit the model to ``features`` (n, d) and integer ``labels`` (n,)."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict integer labels for ``features`` (n, d)."""


class OnlineRegressor(abc.ABC):
    """Incrementally updated regression model interface."""

    @abc.abstractmethod
    def update(self, features: np.ndarray, target: float) -> float:
        """Consume one sample and return the pre-update prediction error."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for one or more feature vectors."""


def check_fitted(attribute: Optional[object], name: str) -> None:
    """Raise a consistent error when a model is used before fitting."""
    if attribute is None:
        raise RuntimeError(f"{name} has not been fitted yet; call fit() first")
