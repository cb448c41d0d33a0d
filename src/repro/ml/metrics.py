"""Model-error and energy metrics used across the experiments.

The paper reports model quality as percentage error (Fig. 2: "<5% error")
and energy savings against a baseline (Fig. 5); the helpers below provide
those metrics.
"""

from __future__ import annotations

import numpy as np


def _pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple:
    a = np.asarray(y_true, dtype=float).ravel()
    b = np.asarray(y_pred, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("metrics require at least one sample")
    return a, b


def mean_absolute_percentage_error(y_true: np.ndarray, y_pred: np.ndarray,
                                   epsilon: float = 1e-12) -> float:
    """MAPE in percent.  ``epsilon`` guards against division by zero."""
    a, b = _pair(y_true, y_pred)
    denom = np.maximum(np.abs(a), epsilon)
    return float(np.mean(np.abs(a - b) / denom) * 100.0)


def energy_savings_percent(baseline_energy: float, improved_energy: float) -> float:
    """Percent energy savings of ``improved`` vs ``baseline`` (Fig. 5 metric)."""
    if baseline_energy <= 0:
        raise ValueError(f"baseline energy must be positive, got {baseline_energy}")
    return 100.0 * (baseline_energy - improved_energy) / baseline_energy
