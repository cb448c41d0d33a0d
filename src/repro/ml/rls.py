"""Recursive least squares (RLS) with exponential forgetting.

This is the core online-learning primitive of Section III-B: power and
performance models (e.g. the GPU frame-time model of Fig. 2) are linear in a
small set of performance-counter features and are updated after every sample
with an exponential forgetting factor so the model tracks workload changes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.base import OnlineRegressor, as_2d


class RecursiveLeastSquares(OnlineRegressor):
    """RLS estimator ``y ≈ w.x (+ b)`` with exponential forgetting.

    Parameters
    ----------
    n_features:
        Dimensionality of the input feature vector (excluding intercept).
    forgetting_factor:
        λ in (0, 1]; smaller values forget old samples faster.  The paper's
        GPU model [12] uses an exponential forgetting factor; λ=1 recovers
        ordinary recursive least squares.
    delta:
        Initial covariance scale (P = delta * I).  Larger values mean less
        confidence in the initial weights.
    fit_intercept:
        If True an intercept term is appended internally.
    initial_weights:
        Optional initial weight vector (length ``n_features`` or
        ``n_features + 1`` when an intercept is fitted), used when a model
        trained offline bootstraps the online estimator.
    """

    def __init__(
        self,
        n_features: int,
        forgetting_factor: float = 0.98,
        delta: float = 100.0,
        fit_intercept: bool = True,
        initial_weights: Optional[np.ndarray] = None,
    ) -> None:
        if n_features <= 0:
            raise ValueError(f"n_features must be positive, got {n_features}")
        if not 0.0 < forgetting_factor <= 1.0:
            raise ValueError(
                f"forgetting_factor must be in (0, 1], got {forgetting_factor}"
            )
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.n_features = int(n_features)
        self.forgetting_factor = float(forgetting_factor)
        self.fit_intercept = bool(fit_intercept)
        self._dim = self.n_features + (1 if self.fit_intercept else 0)
        self.covariance = np.eye(self._dim) * float(delta)
        if initial_weights is None:
            self.weights = np.zeros(self._dim)
        else:
            init = np.asarray(initial_weights, dtype=float).ravel()
            if init.shape[0] == self.n_features and self.fit_intercept:
                init = np.append(init, 0.0)
            if init.shape[0] != self._dim:
                raise ValueError(
                    f"initial_weights has length {init.shape[0]}, expected {self._dim}"
                )
            self.weights = init.copy()
        self.n_updates = 0
        self.last_error = 0.0
        self.last_gain: Optional[np.ndarray] = None

    def _augment(self, features: np.ndarray) -> np.ndarray:
        row = np.asarray(features, dtype=float).ravel()
        if row.shape[0] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {row.shape[0]}"
            )
        if self.fit_intercept:
            row = np.append(row, 1.0)
        return row

    def predict_one(self, features: np.ndarray) -> float:
        """Predict the target for a single feature vector."""
        return float(self._augment(features) @ self.weights)

    def predict(self, features: np.ndarray) -> np.ndarray:
        data = as_2d(features)
        return np.array([self.predict_one(row) for row in data])

    def update(self, features: np.ndarray, target: float) -> float:
        """One RLS update; returns the a-priori prediction error."""
        x = self._augment(features)
        lam = self.forgetting_factor
        prediction = float(x @ self.weights)
        error = float(target) - prediction
        px = self.covariance @ x
        denom = lam + float(x @ px)
        gain = px / denom
        self.weights = self.weights + gain * error
        self.covariance = (self.covariance - np.outer(gain, px)) / lam
        # Keep the covariance symmetric in the presence of round-off.
        self.covariance = 0.5 * (self.covariance + self.covariance.T)
        self.n_updates += 1
        self.last_error = error
        self.last_gain = gain
        return error

    @property
    def coef_(self) -> np.ndarray:
        """Weight vector excluding the intercept term."""
        if self.fit_intercept:
            return self.weights[:-1].copy()
        return self.weights.copy()

    @property
    def intercept_(self) -> float:
        return float(self.weights[-1]) if self.fit_intercept else 0.0


def rls_update_fleet(
    models: Sequence[RecursiveLeastSquares],
    features: np.ndarray,
    targets: np.ndarray,
    state: Optional[dict] = None,
) -> np.ndarray:
    """N independent rank-1 RLS updates as stacked matmuls.

    ``models[d]`` consumes ``(features[d], targets[d])`` exactly as its own
    :meth:`RecursiveLeastSquares.update` would — same gain, same weight and
    covariance result, bitwise.  The batch stacks the per-model precision
    matrices into one ``(devices, dim, dim)`` tensor and replaces the N
    gemv/ddot/outer calls per step with stacked ``np.matmul`` and broadcast
    products; per-slice BLAS dispatch makes each device's arithmetic
    identical to the scalar loop (``np.einsum`` would not be — its private
    summation kernels round differently).  The scalar :meth:`update` stays
    the equivalence reference.

    Models must be distinct objects sharing ``n_features``/``fit_intercept``
    (forgetting factors may differ).  Returns the per-model a-priori errors.

    ``state`` (an initially empty dict the caller keeps between steps)
    carries the stacked weight/precision tensors across calls: each call's
    output stacks become the next call's inputs, with per-model array
    *identity* revalidated so any model a scalar :meth:`update` rebound in
    between is re-copied into its row.  Same arithmetic, no per-step
    re-stacking or re-validation on the steady path.
    """
    if not models:
        raise ValueError("rls_update_fleet needs at least one model")
    n_models = len(models)
    first = models[0]
    n_features, dim = first.n_features, first._dim
    fit_intercept = first.fit_intercept
    cached = (
        state is not None
        and state.get("models") is not None
        and len(state["models"]) == n_models
        and all(m is c for m, c in zip(models, state["models"]))
    )
    if not cached:
        # Object set (identity hash, strong refs) — with every model
        # simultaneously alive, two set members are the same object iff
        # they really are shared; id() values can alias after GC.
        seen = set()
        for model in models:
            if (model.n_features != n_features
                    or model.fit_intercept != fit_intercept):
                raise ValueError("fleet RLS update requires homogeneous models")
            if model in seen:
                raise ValueError(
                    "fleet RLS update requires distinct model instances (a "
                    "shared model must take its updates sequentially)"
                )
            seen.add(model)
    data = as_2d(np.asarray(features, dtype=float))
    if data.shape != (n_models, n_features):
        raise ValueError(
            f"expected features of shape {(n_models, n_features)}, "
            f"got {data.shape}"
        )
    if fit_intercept:
        x = np.concatenate([data, np.ones((n_models, 1))], axis=1)
    else:
        x = data
    if cached:
        lam = state["lam"]
        weights = state["weights"]
        precision = state["precision"]
        w_views = state["w_views"]
        p_views = state["p_views"]
        for i, model in enumerate(models):
            if model.weights is not w_views[i]:
                weights[i] = model.weights
            if model.covariance is not p_views[i]:
                precision[i] = model.covariance
    else:
        lam = np.array([model.forgetting_factor for model in models])
        weights = np.stack([model.weights for model in models])
        precision = np.stack([model.covariance for model in models])
    x_col = x[:, :, None]
    x_row = x[:, None, :]
    prediction = np.matmul(x_row, weights[:, :, None])[:, 0, 0]
    error = np.asarray(targets, dtype=float) - prediction
    px = np.matmul(precision, x_col)[:, :, 0]
    denom = lam + np.matmul(x_row, px[:, :, None])[:, 0, 0]
    gain = px / denom[:, None]
    new_weights = weights + gain * error[:, None]
    new_precision = (
        (precision - gain[:, :, None] * px[:, None, :]) / lam[:, None, None]
    )
    # Keep the covariance symmetric in the presence of round-off.
    new_precision = 0.5 * (new_precision + new_precision.transpose(0, 2, 1))
    error_floats = error.tolist()
    new_w_views = list(new_weights)
    new_p_views = list(new_precision)
    for row, model in enumerate(models):
        model.weights = new_w_views[row]
        model.covariance = new_p_views[row]
        model.n_updates += 1
        model.last_error = error_floats[row]
        model.last_gain = gain[row]
    if state is not None:
        state["models"] = list(models)
        state["lam"] = lam
        state["weights"] = new_weights
        state["precision"] = new_precision
        state["w_views"] = new_w_views
        state["p_views"] = new_p_views
    return error
