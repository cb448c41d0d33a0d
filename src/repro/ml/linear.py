"""Ordinary least-squares regression.

Linear models are the workhorse of the paper's modelling layer: offline IL
policies in prior work use linear regression [18, 19], and the explicit-NMPC
surface can be approximated with simple regression models.  The solver uses
``numpy.linalg.lstsq`` and always fits an intercept.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Regressor, as_1d, as_2d, check_fitted


class LinearRegressor(Regressor):
    """Ordinary least squares with an intercept."""

    def __init__(self) -> None:
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "LinearRegressor":
        data = as_2d(features)
        design = np.hstack([data, np.ones((data.shape[0], 1))])
        y = as_1d(targets)
        if design.shape[0] != y.shape[0]:
            raise ValueError("features and targets must have the same length")
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        self.coef_ = solution[:-1]
        self.intercept_ = float(solution[-1])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self.coef_, "LinearRegressor")
        data = as_2d(features)
        return data @ self.coef_ + self.intercept_

