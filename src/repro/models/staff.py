"""STAFF: Stabilised Adaptive Forgetting Factor.

Section III-B cites STAFF [30]: an online learning technique that adapts the
RLS forgetting factor at runtime so the model forgets quickly when the
workload changes but stays stable in steady state.
:class:`StabilizedAdaptiveForgettingRLS` extends the plain RLS estimator with
a gradient-style forgetting-factor adaptation driven by the normalised
prediction error, clamped to a stability interval.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.ml.rls import RecursiveLeastSquares


class StabilizedAdaptiveForgettingRLS(RecursiveLeastSquares):
    """RLS whose forgetting factor adapts to the normalised prediction error.

    When the squared a-priori error exceeds its running average (a workload
    change), the forgetting factor is decreased towards ``min_forgetting`` so
    old data is discarded faster; when the error is small the factor relaxes
    back towards ``max_forgetting`` for low-variance steady-state estimates.
    """

    def __init__(
        self,
        n_features: int,
        initial_forgetting_factor: float = 0.95,
        min_forgetting: float = 0.85,
        max_forgetting: float = 0.999,
        adaptation_gain: float = 0.05,
        error_smoothing: float = 0.9,
        delta: float = 100.0,
    ) -> None:
        if not 0.0 < min_forgetting < max_forgetting <= 1.0:
            raise ValueError("require 0 < min_forgetting < max_forgetting <= 1")
        if not min_forgetting <= initial_forgetting_factor <= max_forgetting:
            raise ValueError("initial forgetting factor outside [min, max]")
        super().__init__(
            n_features=n_features,
            forgetting_factor=initial_forgetting_factor,
            delta=delta,
        )
        self.min_forgetting = float(min_forgetting)
        self.max_forgetting = float(max_forgetting)
        self.adaptation_gain = float(adaptation_gain)
        self.error_smoothing = float(error_smoothing)
        self._error_average = 0.0
        self.forgetting_history: List[float] = []

    def update(self, features: np.ndarray, target: float) -> float:
        error = super().update(features, target)
        squared_error = error * error
        if self.n_updates == 1:
            self._error_average = squared_error
        else:
            self._error_average = (
                self.error_smoothing * self._error_average
                + (1.0 - self.error_smoothing) * squared_error
            )
        # Normalised surprise: >1 means the error spiked above its average.
        surprise = squared_error / (self._error_average + 1e-12)
        adjustment = self.adaptation_gain * (surprise - 1.0)
        new_lambda = self.forgetting_factor - adjustment
        self.forgetting_factor = float(
            np.clip(new_lambda, self.min_forgetting, self.max_forgetting)
        )
        self.forgetting_history.append(self.forgetting_factor)
        return error
