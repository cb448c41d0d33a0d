"""Feature scaling utilities.

Counter values on real SoCs span many orders of magnitude (cycles vs. branch
mispredictions), so both the IL policy networks and the explicit-NMPC surface
models standardise their inputs.  Scalers support incremental updates because
the online-IL policy keeps adapting to new workloads at runtime.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import as_2d


class StandardScaler:
    """Zero-mean / unit-variance scaling with optional online updates."""

    def __init__(self, epsilon: float = 1e-12) -> None:
        self.epsilon = float(epsilon)
        self.mean_: Optional[np.ndarray] = None
        self.var_: Optional[np.ndarray] = None
        self.count_: int = 0

    def fit(self, features: np.ndarray) -> "StandardScaler":
        data = as_2d(features)
        self.mean_ = data.mean(axis=0)
        self.var_ = data.var(axis=0)
        self.count_ = data.shape[0]
        return self

    def partial_fit(self, features: np.ndarray) -> "StandardScaler":
        """Update running mean/variance with a new batch (Chan's algorithm)."""
        data = as_2d(features)
        if self.mean_ is None or self.var_ is None:
            return self.fit(data)
        n_new = data.shape[0]
        new_mean = data.mean(axis=0)
        new_var = data.var(axis=0)
        n_total = self.count_ + n_new
        delta = new_mean - self.mean_
        combined_mean = self.mean_ + delta * n_new / n_total
        m_old = self.var_ * self.count_
        m_new = new_var * n_new
        combined_var = (m_old + m_new + delta**2 * self.count_ * n_new / n_total) / n_total
        self.mean_ = combined_mean
        self.var_ = combined_var
        self.count_ = n_total
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

