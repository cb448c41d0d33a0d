"""Equivalence suite for the MLP networks: one trainer, one forward.

Every production network, lone or one row of a
:class:`~repro.ml.mlp.FleetMLPStack`, trains through
:func:`repro.ml.mlp.sgd_train` and predicts through
:func:`repro.ml.mlp.forward`.  These tests pin both bitwise against the
per-network loop they replaced (``tests/scalar_reference/mlp_scalar.py``)
for both output heads, sample counts from 1 to 300 and minibatch sizes
that leave a final partial minibatch; :class:`TestOneTrainerOneForward`
checks that every training and prediction entry point goes through the
two functions, so those comparisons do compare two implementations.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ml.mlp as mlp
from repro.ml.mlp import (
    FleetMLPStack,
    MLPClassifier,
    MLPRegressor,
    shuffle_orders,
)
from scalar_reference.mlp_scalar import (
    ScalarMLPClassifier,
    ScalarMLPRegressor,
    assert_same_network,
)

N_FEATURES = 8
N_CLASSES = 5
HYPER = dict(hidden_sizes=(24, 24), learning_rate=5e-3, momentum=0.9,
             l2=1e-5, epochs=4)


def _pair(head, batch_size, seed=3):
    """A production network and its scalar twin (same seed, same init)."""
    if head == "classifier":
        return (MLPClassifier(batch_size=batch_size, seed=seed, **HYPER),
                ScalarMLPClassifier(batch_size=batch_size, seed=seed, **HYPER))
    return (MLPRegressor(batch_size=batch_size, seed=seed, **HYPER),
            ScalarMLPRegressor(batch_size=batch_size, seed=seed, **HYPER))


def _data(head, n_samples, seed):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n_samples, N_FEATURES))
    if head == "classifier":
        return features, rng.integers(0, N_CLASSES, size=n_samples)
    return features, rng.normal(size=(n_samples, 2))


def _outputs(model, features):
    if isinstance(model, (MLPClassifier, ScalarMLPClassifier)):
        return model.predict_proba(features)
    return model.predict(features)


@pytest.mark.parametrize("head", ["classifier", "regressor"])
@pytest.mark.parametrize("batch_size", [4, 32])
@pytest.mark.parametrize("n_samples", [1, 10, 59, 300])
class TestScalarEquivalence:
    def test_fit_matches_the_scalar_loop(self, n_samples, batch_size, head):
        model, twin = _pair(head, batch_size)
        features, targets = _data(head, n_samples, seed=n_samples)
        model.fit(features, targets)
        twin.fit(features, targets)
        assert_same_network(model, twin)
        probe = np.random.default_rng(1).normal(size=(9, N_FEATURES))
        assert _outputs(model, probe).tobytes() == \
            _outputs(twin, probe).tobytes()

    def test_partial_fit_matches_the_scalar_loop(self, n_samples,
                                                 batch_size, head):
        model, twin = _pair(head, batch_size)
        if head == "classifier":
            for network in (model, twin):
                network.ensure_classes(range(N_CLASSES), N_FEATURES)
        for step, epochs in enumerate((3, 1, 2)):
            features, targets = _data(head, n_samples, seed=100 + step)
            model.partial_fit(features, targets, epochs=epochs)
            twin.partial_fit(features, targets, epochs=epochs)
            assert_same_network(model, twin)


@pytest.mark.parametrize("head", ["classifier", "regressor"])
@pytest.mark.parametrize("n_rows", [1, 2, 5, 33, 200])
def test_forward_matches_the_scalar_loop(n_rows, head):
    model, twin = _pair(head, batch_size=32)
    features, targets = _data(head, 59, seed=7)
    model.fit(features, targets)
    twin.fit(features, targets)
    probe = np.random.default_rng(n_rows).normal(size=(n_rows, N_FEATURES))
    assert _outputs(model, probe).tobytes() == \
        _outputs(twin, probe).tobytes()


@pytest.mark.parametrize("epochs", [0, 1, 40])
@pytest.mark.parametrize("n_samples", [0, 1, 2, 10, 59, 300])
def test_shuffle_orders_are_per_epoch_permutations(n_samples, epochs):
    drawn = np.random.default_rng(n_samples + epochs)
    looped = np.random.default_rng(n_samples + epochs)
    orders = shuffle_orders(drawn, n_samples, epochs)
    assert orders.shape == (epochs, n_samples)
    for epoch in range(epochs):
        np.testing.assert_array_equal(orders[epoch],
                                      looped.permutation(n_samples))
    assert drawn.bit_generator.state == looped.bit_generator.state


class TestOneTrainerOneForward:
    """Each entry point calls the module-level trainer or forward once.

    A method that trained or predicted through a loop of its own would
    still match the scalar twin above, so the equivalence tests could
    not tell; this records the calls instead.
    """

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []

        def recording(name, function):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mlp, "sgd_train",
                            recording("train", mlp.sgd_train))
        monkeypatch.setattr(mlp, "forward", recording("forward", mlp.forward))
        return calls

    def _classifiers(self, n=2):
        classifiers = [MLPClassifier(hidden_sizes=(8,), batch_size=4, seed=i)
                       for i in range(n)]
        for classifier in classifiers:
            classifier.ensure_classes(range(N_CLASSES), N_FEATURES)
        return classifiers

    @pytest.mark.parametrize("entry", [
        "classifier.fit", "classifier.partial_fit", "regressor.fit",
        "regressor.partial_fit", "stack.partial_fit_rows",
    ])
    def test_training_goes_through_sgd_train(self, calls, entry):
        features, labels = _data("classifier", 10, seed=0)
        _, targets = _data("regressor", 10, seed=0)
        if entry == "classifier.fit":
            MLPClassifier(hidden_sizes=(8,), epochs=3).fit(features, labels)
        elif entry == "classifier.partial_fit":
            self._classifiers(1)[0].partial_fit(features, labels, epochs=3)
        elif entry == "regressor.fit":
            MLPRegressor(hidden_sizes=(8,), epochs=3).fit(features, targets)
        elif entry == "regressor.partial_fit":
            MLPRegressor(hidden_sizes=(8,)).partial_fit(features, targets,
                                                        epochs=3)
        else:
            batch = self._classifiers()
            FleetMLPStack(batch).partial_fit_rows(
                np.arange(2), [features, features],
                [batch[0]._encode(labels)] * 2, epochs=3)
        assert calls == ["train"]

    @pytest.mark.parametrize("entry", [
        "classifier.predict_proba", "classifier.predict",
        "regressor.predict", "stack.predict_encoded",
    ])
    def test_prediction_goes_through_forward(self, calls, entry):
        features, _ = _data("classifier", 6, seed=1)
        regressor = MLPRegressor(hidden_sizes=(8,)).partial_fit(
            features, features[:, 0])
        batch = self._classifiers()
        stack = FleetMLPStack(batch)
        calls.clear()
        if entry == "classifier.predict_proba":
            batch[0].predict_proba(features)
        elif entry == "classifier.predict":
            batch[0].predict(features)
        elif entry == "regressor.predict":
            regressor.predict(features)
        else:
            stack.predict_encoded(np.arange(2), features[:2])
        assert calls == ["forward"]
