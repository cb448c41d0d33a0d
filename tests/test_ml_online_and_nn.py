"""Tests for RLS, STAFF, the MLP networks, scalers and metrics."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.ml import (
    MLPClassifier,
    MLPRegressor,
    RecursiveLeastSquares,
    StandardScaler,
    mean_absolute_percentage_error,
)
from repro.ml.metrics import energy_savings_percent
from repro.models.staff import StabilizedAdaptiveForgettingRLS


def r_squared(targets, predictions):
    """Coefficient of determination of ``predictions``."""
    residual = np.sum((targets - predictions) ** 2)
    return 1.0 - residual / np.sum((targets - np.mean(targets)) ** 2)


class TestRecursiveLeastSquares:
    def test_converges_to_true_weights(self, rng):
        true_w = np.array([2.0, -1.0, 0.5])
        model = RecursiveLeastSquares(n_features=3, forgetting_factor=1.0)
        for _ in range(200):
            x = rng.normal(size=3)
            y = float(x @ true_w + 3.0)
            model.update(x, y)
        assert np.allclose(model.coef_, true_w, atol=1e-3)
        assert model.weights[-1] == pytest.approx(3.0, abs=1e-3)

    def test_tracks_changing_weights_with_forgetting(self, rng):
        model = RecursiveLeastSquares(n_features=1, forgetting_factor=0.9)
        for _ in range(100):
            x = rng.normal(size=1)
            model.update(x, float(2.0 * x[0]))
        for _ in range(150):
            x = rng.normal(size=1)
            model.update(x, float(-3.0 * x[0]))
        assert model.coef_[0] == pytest.approx(-3.0, abs=0.1)

    def test_initial_weights_used(self):
        model = RecursiveLeastSquares(n_features=2, initial_weights=np.array([1.0, 2.0]))
        assert model.predict_one(np.array([1.0, 1.0])) == pytest.approx(3.0)

    def test_error_returned_is_apriori(self):
        model = RecursiveLeastSquares(n_features=1)
        error = model.update(np.array([1.0]), 5.0)
        assert error == pytest.approx(5.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RecursiveLeastSquares(n_features=0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(n_features=1, forgetting_factor=0.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(n_features=1, delta=-1.0)
        with pytest.raises(ValueError):
            RecursiveLeastSquares(n_features=2, initial_weights=np.zeros(5))

    def test_feature_dimension_checked(self):
        model = RecursiveLeastSquares(n_features=2)
        with pytest.raises(ValueError):
            model.update(np.zeros(3), 1.0)

    def test_predict_batch_shape(self, rng):
        model = RecursiveLeastSquares(n_features=2)
        out = model.predict(rng.normal(size=(5, 2)))
        assert out.shape == (5,)

    def test_covariance_stays_symmetric(self, rng):
        model = RecursiveLeastSquares(n_features=3, forgetting_factor=0.95)
        for _ in range(100):
            x = rng.normal(size=3)
            model.update(x, float(x.sum()))
        assert np.allclose(model.covariance, model.covariance.T)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
    def test_exact_fit_of_noiseless_line(self, slope, intercept):
        model = RecursiveLeastSquares(n_features=1, forgetting_factor=1.0)
        rng = np.random.default_rng(0)
        for _ in range(80):
            x = rng.uniform(-2, 2)
            model.update(np.array([x]), slope * x + intercept)
        prediction = model.predict_one(np.array([1.5]))
        assert prediction == pytest.approx(slope * 1.5 + intercept, abs=1e-2)


class TestStaff:
    def test_forgetting_factor_drops_after_change(self, rng):
        model = StabilizedAdaptiveForgettingRLS(n_features=1,
                                                initial_forgetting_factor=0.98)
        for _ in range(60):
            x = rng.normal(size=1)
            model.update(x, float(x[0]))
        stable_lambda = model.forgetting_factor
        for _ in range(3):
            x = rng.normal(size=1)
            model.update(x, float(10.0 * x[0] + 5.0))
        assert model.forgetting_factor <= stable_lambda

    def test_forgetting_factor_stays_in_bounds(self, rng):
        model = StabilizedAdaptiveForgettingRLS(n_features=2, min_forgetting=0.9,
                                                max_forgetting=0.99)
        for _ in range(200):
            x = rng.normal(size=2)
            target = float(x.sum() + rng.normal(scale=5.0))
            model.update(x, target)
        history = np.array(model.forgetting_history)
        assert np.all(history >= 0.9 - 1e-12)
        assert np.all(history <= 0.99 + 1e-12)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            StabilizedAdaptiveForgettingRLS(n_features=1, min_forgetting=0.99,
                                            max_forgetting=0.9)


class TestMLP:
    def test_regressor_fits_linear_function(self, rng):
        x = rng.uniform(-1, 1, size=(200, 2))
        y = 3.0 * x[:, 0] - 2.0 * x[:, 1]
        model = MLPRegressor(hidden_sizes=(16,), epochs=300, seed=0,
                             learning_rate=5e-3)
        model.fit(x, y)
        assert r_squared(y, model.predict(x)) > 0.95

    def test_regressor_partial_fit_improves(self, rng):
        x = rng.uniform(-1, 1, size=(100, 2))
        y = x[:, 0] + x[:, 1]
        model = MLPRegressor(hidden_sizes=(8,), epochs=5, seed=0)
        model.fit(x, y)
        before = np.mean((y - model.predict(x)) ** 2)
        model.partial_fit(x, y, epochs=200)
        after = np.mean((y - model.predict(x)) ** 2)
        assert after < before

    def test_regressor_multi_output(self, rng):
        x = rng.normal(size=(50, 3))
        y = np.column_stack([x[:, 0], x[:, 1] * 2])
        model = MLPRegressor(hidden_sizes=(16,), epochs=50, seed=0).fit(x, y)
        assert model.predict(x).shape == (50, 2)

    def test_regressor_parameter_count(self):
        model = MLPRegressor(hidden_sizes=(4,), epochs=1, seed=0)
        assert model.parameter_count() == 0
        model.fit(np.zeros((4, 3)), np.zeros(4))
        assert model.parameter_count() == 3 * 4 + 4 + 4 * 1 + 1

    def test_classifier_separates_clusters(self, rng):
        x = np.vstack([rng.normal(-2, 0.4, size=(60, 2)),
                       rng.normal(2, 0.4, size=(60, 2))])
        y = np.array([0] * 60 + [1] * 60)
        model = MLPClassifier(hidden_sizes=(16,), epochs=150, seed=0)
        model.fit(x, y)
        assert np.mean(model.predict(x) == y) > 0.9

    def test_classifier_proba_sums_to_one(self, rng):
        x = rng.normal(size=(30, 2))
        y = rng.integers(0, 3, size=30)
        model = MLPClassifier(hidden_sizes=(8,), epochs=20, seed=0).fit(x, y)
        probs = model.predict_proba(x)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_classifier_ensure_classes_allows_unseen_labels(self, rng):
        model = MLPClassifier(hidden_sizes=(8,), epochs=10, seed=0)
        model.ensure_classes(range(5), n_features=3)
        x = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, size=20)  # only labels 0/1 observed
        model.partial_fit(x, y, epochs=5)
        assert set(model.predict(x)).issubset(set(range(5)))

    def test_classifier_partial_fit_requires_registration(self, rng):
        model = MLPClassifier()
        with pytest.raises(RuntimeError):
            model.partial_fit(rng.normal(size=(5, 2)), np.zeros(5, dtype=int))

    def test_classifier_unknown_label_rejected(self, rng):
        model = MLPClassifier(hidden_sizes=(4,), epochs=5, seed=0)
        model.ensure_classes([0, 1], n_features=2)
        with pytest.raises(ValueError):
            model.partial_fit(rng.normal(size=(3, 2)), np.array([0, 1, 7]))

    def test_encode_matches_dict_mapping(self, rng):
        """Vectorized searchsorted label encoding == the explicit dict map.

        Classes are sparse and unsorted on input; ``classes_`` is the sorted
        unique set, and every label must map to its position in it.
        """
        model = MLPClassifier(hidden_sizes=(4,), epochs=1, seed=0)
        classes = [30, 4, 17, 0, 255]
        model.ensure_classes(classes, n_features=2)
        labels = np.array(rng.choice(classes, size=200))
        encoded = model._encode(labels)
        index = {int(c): i for i, c in enumerate(model.classes_)}
        np.testing.assert_array_equal(
            encoded, np.array([index[int(label)] for label in labels])
        )
        assert encoded.dtype == np.dtype(int)


class TestScalers:
    def test_standard_scaler_zero_mean_unit_variance(self, rng):
        x = rng.normal(5.0, 3.0, size=(500, 4))
        scaled = StandardScaler().fit_transform(x)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-6)

    def test_standard_scaler_refit_rebinds_statistics(self, rng):
        """``fit`` binds new ``mean_``/``var_`` arrays and leaves the old
        ones as they were: the online-IL fleet path re-adopts a policy
        when its scaler's statistics are no longer the arrays it stacked."""
        scaler = StandardScaler().fit(rng.normal(size=(50, 3)))
        mean, var = scaler.mean_, scaler.var_
        kept = mean.copy(), var.copy()
        scaler.fit(rng.normal(loc=5.0, size=(50, 3)))
        assert scaler.mean_ is not mean and scaler.var_ is not var
        np.testing.assert_array_equal(mean, kept[0])
        np.testing.assert_array_equal(var, kept[1])
        assert not np.allclose(scaler.mean_, mean)

    def test_standard_scaler_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 2)))


class TestMetrics:

    def test_perfect_prediction_metrics(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, y) == 1.0
        assert mean_absolute_percentage_error(y, y) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            mean_absolute_percentage_error(np.zeros(3), np.zeros(4))

    def test_empty_input_raises(self):
        with pytest.raises(ValueError, match="at least one sample"):
            mean_absolute_percentage_error([], [])

    def test_energy_savings_percent(self):
        assert energy_savings_percent(10.0, 7.5) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            energy_savings_percent(0.0, 1.0)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=2, max_size=20))
    def test_r2_of_mean_prediction_is_zero(self, values):
        y = np.array(values)
        assume(float(y.max() - y.min()) > 1e-3)
        mean_prediction = np.full_like(y, y.mean())
        assert r_squared(y, mean_prediction) == pytest.approx(0.0, abs=1e-9)
