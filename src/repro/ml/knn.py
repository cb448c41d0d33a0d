"""k-nearest-neighbour regression.

A k-NN look-up table over low-discrepancy samples of the NMPC surface is one
of the classic explicit-MPC approximations (cf. [20]); it is provided here as
an alternative surface model for the explicit-NMPC controller and for
ablation benchmarks comparing approximator choices.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Regressor, as_1d, as_2d


class KNeighborsRegressor(Regressor):
    """Distance-weighted k-NN regression with Euclidean distance."""

    def __init__(self, n_neighbors: int = 5) -> None:
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        self.n_neighbors = int(n_neighbors)
        self._x: Optional[np.ndarray] = None
        self._y: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "KNeighborsRegressor":
        x = as_2d(features)
        y = as_1d(targets)
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and targets must have the same length")
        if x.shape[0] < self.n_neighbors:
            raise ValueError(
                f"need at least n_neighbors={self.n_neighbors} samples, got {x.shape[0]}"
            )
        self._x = x.copy()
        self._y = y.copy()
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._x is None or self._y is None:
            raise RuntimeError("KNeighborsRegressor has not been fitted yet")
        queries = as_2d(features)
        predictions = np.empty(queries.shape[0])
        for i, query in enumerate(queries):
            distances = np.sqrt(np.sum((self._x - query) ** 2, axis=1))
            neighbor_idx = np.argsort(distances, kind="stable")[: self.n_neighbors]
            neighbor_dist = distances[neighbor_idx]
            neighbor_y = self._y[neighbor_idx]
            if np.any(neighbor_dist < 1e-12):
                # Exact match: return the matching target(s).
                predictions[i] = float(np.mean(neighbor_y[neighbor_dist < 1e-12]))
            else:
                w = 1.0 / neighbor_dist
                predictions[i] = float(np.sum(w * neighbor_y) / np.sum(w))
        return predictions
