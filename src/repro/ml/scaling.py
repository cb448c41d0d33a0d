"""Feature scaling utilities.

Counter values on real SoCs span many orders of magnitude (cycles vs. branch
mispredictions), so both the IL policy networks and the explicit-NMPC surface
models standardise their inputs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import as_2d


class StandardScaler:
    """Zero-mean / unit-variance scaling."""

    def __init__(self, epsilon: float = 1e-12) -> None:
        self.epsilon = float(epsilon)
        self.mean_: Optional[np.ndarray] = None
        self.var_: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "StandardScaler":
        data = as_2d(features)
        self.mean_ = data.mean(axis=0)
        self.var_ = data.var(axis=0)
        return self

    @property
    def scale_(self) -> np.ndarray:
        """Per-feature divisor ``sqrt(var_ + epsilon)`` of :meth:`transform`."""
        if self.mean_ is None or self.var_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        return np.sqrt(self.var_ + self.epsilon)

    def transform(self, features: np.ndarray) -> np.ndarray:
        scale = self.scale_
        return (as_2d(features) - self.mean_) / scale

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)

