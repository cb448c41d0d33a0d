"""Support vector regression (epsilon-SVR) with RBF / linear kernels.

Section III-C cites an SVR-based NoC latency model [34]: channel and source
waiting times from an analytical model plus simulator observations are used
as features of an SVR predictor.  This module implements epsilon-SVR trained
by projected gradient ascent on the dual problem — adequate for the small
training sets used in the NoC experiments and free of external dependencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.base import Regressor, as_1d, as_2d


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """RBF kernel matrix between row sets ``a`` (n, d) and ``b`` (m, d)."""
    a_sq = np.sum(a**2, axis=1)[:, None]
    b_sq = np.sum(b**2, axis=1)[None, :]
    dist_sq = np.maximum(a_sq + b_sq - 2.0 * a @ b.T, 0.0)
    return np.exp(-gamma * dist_sq)


def linear_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """Linear kernel (gamma unused, kept for a uniform signature)."""
    return a @ b.T


_KERNELS = {"rbf": rbf_kernel, "linear": linear_kernel}


class SupportVectorRegressor(Regressor):
    """Epsilon-SVR solved in the dual by projected gradient ascent.

    The dual variables ``beta = alpha - alpha*`` are box-constrained to
    [-C, C]; the epsilon-insensitive loss enters the dual objective through an
    L1 penalty on ``beta``.  A final pass computes the bias from samples with
    ``|beta| < C`` (free support vectors).
    """

    def __init__(
        self,
        c: float = 10.0,
        epsilon: float = 0.1,
        kernel: str = "rbf",
        gamma: Optional[float] = None,
        max_iterations: int = 2000,
        learning_rate: float = 1e-3,
        tolerance: float = 1e-6,
    ) -> None:
        if c <= 0:
            raise ValueError(f"c must be positive, got {c}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}")
        self.c = float(c)
        self.epsilon = float(epsilon)
        self.kernel = kernel
        self.gamma = gamma
        self.max_iterations = int(max_iterations)
        self.learning_rate = float(learning_rate)
        self.tolerance = float(tolerance)
        self.support_vectors_: Optional[np.ndarray] = None
        self.beta_: Optional[np.ndarray] = None
        self.bias_: float = 0.0
        self._gamma_value: float = 1.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "SupportVectorRegressor":
        x = as_2d(features)
        y = as_1d(targets)
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and targets must have the same length")
        n_samples, n_features = x.shape
        if self.gamma is None:
            variance = float(x.var()) or 1.0
            self._gamma_value = 1.0 / (n_features * variance)
        else:
            self._gamma_value = float(self.gamma)
        kernel_fn = _KERNELS[self.kernel]
        gram = kernel_fn(x, x, self._gamma_value)
        beta = np.zeros(n_samples)
        # Projected gradient ascent on the dual objective:
        #   maximise  -0.5 b'Kb + y'b - eps*|b|_1   s.t.  |b_i| <= C
        step = self.learning_rate / (np.trace(gram) / n_samples + 1.0)
        previous_objective = -np.inf
        for _ in range(self.max_iterations):
            grad = y - gram @ beta - self.epsilon * np.sign(beta)
            beta = np.clip(beta + step * grad, -self.c, self.c)
            objective = float(
                -0.5 * beta @ gram @ beta + y @ beta
                - self.epsilon * np.abs(beta).sum()
            )
            if abs(objective - previous_objective) < self.tolerance:
                break
            previous_objective = objective
        self.support_vectors_ = x
        self.beta_ = beta
        # Bias from free support vectors: y_i - f(x_i) ∓ epsilon.
        free = (np.abs(beta) > 1e-8) & (np.abs(beta) < self.c - 1e-8)
        raw = gram @ beta
        if np.any(free):
            residual = y[free] - raw[free] - self.epsilon * np.sign(beta[free])
            self.bias_ = float(np.mean(residual))
        else:
            self.bias_ = float(np.mean(y - raw))
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.support_vectors_ is None or self.beta_ is None:
            raise RuntimeError("SupportVectorRegressor has not been fitted yet")
        x = as_2d(features)
        kernel_fn = _KERNELS[self.kernel]
        gram = kernel_fn(x, self.support_vectors_, self._gamma_value)
        return gram @ self.beta_ + self.bias_
