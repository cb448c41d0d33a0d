"""Ordinary least-squares regression.

Linear models are the workhorse of the paper's modelling layer: offline IL
policies in prior work use linear regression [18, 19], and the explicit-NMPC
surface can be approximated with simple regression models.  The solver uses
``numpy.linalg.lstsq`` and supports an optional intercept.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Regressor, as_1d, as_2d, check_fitted


class LinearRegressor(Regressor):
    """Ordinary least squares with optional intercept."""

    def __init__(self, fit_intercept: bool = True) -> None:
        self.fit_intercept = bool(fit_intercept)
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def _design(self, features: np.ndarray) -> np.ndarray:
        data = as_2d(features)
        if self.fit_intercept:
            ones = np.ones((data.shape[0], 1))
            data = np.hstack([data, ones])
        return data

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LinearRegressor":
        design = self._design(features)
        y = as_1d(targets)
        if design.shape[0] != y.shape[0]:
            raise ValueError("features and targets must have the same length")
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        if self.fit_intercept:
            self.coef_ = solution[:-1]
            self.intercept_ = float(solution[-1])
        else:
            self.coef_ = solution
            self.intercept_ = 0.0
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self.coef_, "LinearRegressor")
        data = as_2d(features)
        return data @ self.coef_ + self.intercept_

