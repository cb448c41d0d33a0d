"""Tests for the batch regression models (linear, trees, SVR, kNN)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import (
    DecisionTreeRegressor,
    KNeighborsRegressor,
    LinearRegressor,
    SupportVectorRegressor,
)


def _depth(node):
    """Levels from ``node`` down to its deepest leaf (a leaf counts 1)."""
    if node.is_leaf:
        return 1
    return 1 + max(_depth(node.left), _depth(node.right))


def make_linear_data(rng, n=120, d=4, noise=0.05):
    x = rng.normal(size=(n, d))
    coef = rng.normal(size=d)
    y = x @ coef + 0.7 + rng.normal(scale=noise, size=n)
    return x, y, coef


class TestLinearRegressor:
    def test_recovers_coefficients(self, rng):
        x, y, coef = make_linear_data(rng, noise=0.0)
        model = LinearRegressor().fit(x, y)
        assert np.allclose(model.coef_, coef, atol=1e-8)
        assert model.intercept_ == pytest.approx(0.7, abs=1e-8)

    def test_score_near_one_on_clean_data(self, rng):
        x, y, _ = make_linear_data(rng)
        predictions = LinearRegressor().fit(x, y).predict(x)
        # R^2 > 0.98: the residuals keep under 2% of the variance.
        assert np.mean((y - predictions) ** 2) < 0.02 * np.var(y)

    def test_no_intercept(self, rng):
        x = rng.normal(size=(50, 2))
        y = x @ np.array([1.0, -2.0])
        model = LinearRegressor(fit_intercept=False).fit(x, y)
        assert model.intercept_ == 0.0
        assert np.allclose(model.coef_, [1.0, -2.0], atol=1e-8)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegressor().predict(np.zeros((1, 2)))

    def test_length_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            LinearRegressor().fit(rng.normal(size=(10, 2)), rng.normal(size=9))

    def test_1d_input_reshaped(self, rng):
        x, y, _ = make_linear_data(rng, d=3)
        model = LinearRegressor().fit(x, y)
        single = model.predict(x[0])
        assert single.shape == (1,)


class TestDecisionTree:
    def test_regressor_fits_step_function(self, rng):
        x = rng.uniform(0, 1, size=(200, 1))
        y = (x[:, 0] > 0.5).astype(float) * 10.0
        model = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert np.mean(np.abs(y - model.predict(x))) < 0.5

    def test_regressor_constant_target(self, rng):
        x = rng.normal(size=(30, 2))
        y = np.full(30, 3.0)
        model = DecisionTreeRegressor().fit(x, y)
        assert np.allclose(model.predict(x), 3.0)

    def test_depth_limit_respected(self, rng):
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        model = DecisionTreeRegressor(max_depth=3).fit(x, y)
        assert _depth(model.root_) <= 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=10, max_value=60))
    def test_regressor_predictions_within_target_range(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=(n, 2))
        y = rng.uniform(-5, 5, size=n)
        model = DecisionTreeRegressor(max_depth=5, min_samples_split=2,
                                      min_samples_leaf=1).fit(x, y)
        predictions = model.predict(x)
        assert predictions.min() >= y.min() - 1e-9
        assert predictions.max() <= y.max() + 1e-9


class TestSVR:
    def test_fits_linear_function(self, rng):
        x = rng.uniform(-1, 1, size=(60, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + 0.5
        model = SupportVectorRegressor(kernel="linear", c=50.0, epsilon=0.01)
        model.fit(x, y)
        assert np.mean(np.abs(y - model.predict(x))) < 0.2

    def test_rbf_fits_smooth_nonlinear_function(self, rng):
        x = rng.uniform(-2, 2, size=(80, 1))
        y = np.sin(x[:, 0])
        model = SupportVectorRegressor(kernel="rbf", c=50.0, epsilon=0.02,
                                       gamma=1.0).fit(x, y)
        assert np.mean(np.abs(y - model.predict(x))) < 0.25

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            SupportVectorRegressor(kernel="poly")

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SupportVectorRegressor().predict(np.zeros((1, 1)))


class TestKNN:
    def test_exact_match_returns_training_target(self, rng):
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        model = KNeighborsRegressor(n_neighbors=3).fit(x, y)
        assert model.predict(x[[4]])[0] == pytest.approx(y[4])

    def test_uniform_weights_average(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0]])
        y = np.array([0.0, 1.0, 2.0, 10.0])
        model = KNeighborsRegressor(n_neighbors=3, weights="uniform").fit(x, y)
        assert model.predict(np.array([[1.0]]))[0] == pytest.approx(1.0)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(n_neighbors=5).fit(np.zeros((3, 1)), np.zeros(3))

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            KNeighborsRegressor(weights="gaussian")
