"""The per-network MLP training loop (oracle of the stacked trainer).

:mod:`repro.ml.mlp` trains and evaluates every network, lone or one row of
a fleet stack, through :func:`repro.ml.mlp.sgd_train` and
:func:`repro.ml.mlp.forward`.  This is the loop they replaced: one
network's own per-layer arrays, one ``rng.permutation`` per epoch, and
per-minibatch :meth:`_MLPCore.forward` / :meth:`_MLPCore.backward` calls.
:class:`ScalarMLPRegressor` and :class:`ScalarMLPClassifier` take the
production classes' constructor arguments and draw the same initial
weights from the same seed, so a twin trained on the same data must end
with bitwise the same parameters, velocities and generator state.
:func:`scalar_twin` builds such a twin from a production network's
current state, and :func:`assert_same_network` compares the two.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import Classifier, Regressor, as_2d
from repro.ml.mlp import MLPClassifier, layer_views
from repro.utils.rng import make_rng


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0.0).astype(float)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class _MLPCore:
    """Shared weight container and forward/backward passes."""

    def __init__(
        self,
        layer_sizes: Sequence[int],
        learning_rate: float,
        momentum: float,
        l2: float,
        rng: np.random.Generator,
    ) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes must contain input and output sizes")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.layer_sizes = [int(s) for s in layer_sizes]
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.l2 = float(l2)
        self.rng = rng
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        self._w_vel: List[np.ndarray] = []
        self._b_vel: List[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            scale = np.sqrt(2.0 / float(fan_in))
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
            self._w_vel.append(np.zeros((fan_in, fan_out)))
            self._b_vel.append(np.zeros(fan_out))

    def forward(self, batch: np.ndarray) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """Return (pre-activations, post-activations) for each layer."""
        pre: List[np.ndarray] = []
        post: List[np.ndarray] = [batch]
        current = batch
        n_layers = len(self.weights)
        for index, (weight, bias) in enumerate(zip(self.weights, self.biases)):
            z = current @ weight + bias
            pre.append(z)
            if index < n_layers - 1:
                current = relu(z)
            else:
                current = z  # linear output head; softmax applied by classifier
            post.append(current)
        return pre, post

    def backward(self, pre: List[np.ndarray], post: List[np.ndarray],
                 output_grad: np.ndarray) -> None:
        """Backpropagate ``output_grad`` (dL/d output) and apply one SGD step."""
        batch_size = post[0].shape[0]
        grad = output_grad
        weight_grads: List[np.ndarray] = [np.empty(0)] * len(self.weights)
        bias_grads: List[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in reversed(range(len(self.weights))):
            weight_grads[layer] = post[layer].T @ grad / batch_size
            bias_grads[layer] = grad.mean(axis=0)
            if layer > 0:
                grad = (grad @ self.weights[layer].T) * relu_grad(pre[layer - 1])
        for layer in range(len(self.weights)):
            dw = weight_grads[layer] + self.l2 * self.weights[layer]
            db = bias_grads[layer]
            self._w_vel[layer] = self.momentum * self._w_vel[layer] - self.learning_rate * dw
            self._b_vel[layer] = self.momentum * self._b_vel[layer] - self.learning_rate * db
            self.weights[layer] += self._w_vel[layer]
            self.biases[layer] += self._b_vel[layer]

    def parameter_count(self) -> int:
        return int(sum(w.size + b.size for w, b in zip(self.weights, self.biases)))



class ScalarMLPRegressor(Regressor):
    """Feed-forward regression network (possibly multi-output)."""

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (32, 32),
        learning_rate: float = 1e-2,
        momentum: float = 0.9,
        l2: float = 1e-5,
        epochs: int = 200,
        batch_size: int = 32,
        seed: Optional[int] = None,
    ) -> None:
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.l2 = l2
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.rng = make_rng(seed)
        self._core: Optional[_MLPCore] = None
        self.n_outputs_: int = 1

    def _build(self, n_features: int, n_outputs: int) -> None:
        sizes = [n_features, *self.hidden_sizes, n_outputs]
        self._core = _MLPCore(sizes, self.learning_rate, self.momentum,
                              self.l2, self.rng)
        self.n_outputs_ = n_outputs

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ScalarMLPRegressor":
        data = as_2d(features)
        targ = np.asarray(targets, dtype=float)
        if targ.ndim == 1:
            targ = targ.reshape(-1, 1)
        if data.shape[0] != targ.shape[0]:
            raise ValueError("features and targets must have the same length")
        self._build(data.shape[1], targ.shape[1])
        for _ in range(self.epochs):
            self._run_epoch(data, targ)
        return self

    def partial_fit(self, features: np.ndarray, targets: np.ndarray,
                    epochs: int = 1) -> "ScalarMLPRegressor":
        """Incrementally train on a new batch without reinitialising weights."""
        data = as_2d(features)
        targ = np.asarray(targets, dtype=float)
        if targ.ndim == 1:
            targ = targ.reshape(-1, 1)
        if self._core is None:
            self._build(data.shape[1], targ.shape[1])
        for _ in range(max(1, int(epochs))):
            self._run_epoch(data, targ)
        return self

    def _run_epoch(self, data: np.ndarray, targ: np.ndarray) -> None:
        assert self._core is not None
        n = data.shape[0]
        order = self.rng.permutation(n)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            pre, post = self._core.forward(data[idx])
            grad = 2.0 * (post[-1] - targ[idx])
            self._core.backward(pre, post, grad)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._core is None:
            raise RuntimeError("MLPRegressor has not been fitted yet")
        data = as_2d(features)
        _, post = self._core.forward(data)
        out = post[-1]
        if self.n_outputs_ == 1:
            return out.ravel()
        return out

    def parameter_count(self) -> int:
        """Number of trainable parameters (storage-overhead reporting)."""
        if self._core is None:
            return 0
        return self._core.parameter_count()


class ScalarMLPClassifier(Classifier):
    """Feed-forward softmax classifier used for the IL configuration policy."""

    def __init__(
        self,
        hidden_sizes: Sequence[int] = (32, 32),
        learning_rate: float = 1e-2,
        momentum: float = 0.9,
        l2: float = 1e-5,
        epochs: int = 200,
        batch_size: int = 32,
        seed: Optional[int] = None,
    ) -> None:
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.l2 = l2
        self.epochs = int(epochs)
        self.batch_size = int(batch_size)
        self.rng = make_rng(seed)
        self._core: Optional[_MLPCore] = None
        self.classes_: Optional[np.ndarray] = None

    def _build(self, n_features: int, n_classes: int) -> None:
        sizes = [n_features, *self.hidden_sizes, n_classes]
        self._core = _MLPCore(sizes, self.learning_rate, self.momentum,
                              self.l2, self.rng)

    def _encode(self, labels: np.ndarray) -> np.ndarray:
        # ``classes_`` is sorted (np.unique / ensure_classes), so the
        # label-to-index mapping is one vectorized binary search; callers
        # (fit/partial_fit) have already validated label membership.
        assert self.classes_ is not None
        return np.searchsorted(self.classes_, labels).astype(int)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "ScalarMLPClassifier":
        data = as_2d(features)
        labs = np.asarray(labels).ravel().astype(int)
        if data.shape[0] != labs.shape[0]:
            raise ValueError("features and labels must have the same length")
        self.classes_ = np.unique(labs)
        self._build(data.shape[1], len(self.classes_))
        encoded = self._encode(labs)
        for _ in range(self.epochs):
            self._run_epoch(data, encoded)
        return self

    def ensure_classes(self, classes: Sequence[int], n_features: int) -> None:
        """Pre-register the full action set before any fit/partial_fit call.

        The online-IL policy must be able to output any SoC configuration even
        if early training data only covers a subset of them.
        """
        self.classes_ = np.array(sorted(int(c) for c in classes))
        if self._core is None:
            self._build(int(n_features), len(self.classes_))

    def partial_fit(self, features: np.ndarray, labels: np.ndarray,
                    epochs: int = 1) -> "ScalarMLPClassifier":
        """Incremental update from the online-IL aggregation buffer."""
        data = as_2d(features)
        labs = np.asarray(labels).ravel().astype(int)
        if self.classes_ is None or self._core is None:
            raise RuntimeError(
                "call fit() or ensure_classes() before partial_fit()"
            )
        unknown = set(labs.tolist()) - set(int(c) for c in self.classes_)
        if unknown:
            raise ValueError(f"labels {sorted(unknown)} not in registered classes")
        encoded = self._encode(labs)
        for _ in range(max(1, int(epochs))):
            self._run_epoch(data, encoded)
        return self

    def _run_epoch(self, data: np.ndarray, encoded: np.ndarray) -> None:
        assert self._core is not None and self.classes_ is not None
        n = data.shape[0]
        n_classes = len(self.classes_)
        order = self.rng.permutation(n)
        for start in range(0, n, self.batch_size):
            idx = order[start:start + self.batch_size]
            pre, post = self._core.forward(data[idx])
            probs = softmax(post[-1])
            onehot = np.zeros((len(idx), n_classes))
            onehot[np.arange(len(idx)), encoded[idx]] = 1.0
            grad = probs - onehot
            self._core.backward(pre, post, grad)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._core is None or self.classes_ is None:
            raise RuntimeError("MLPClassifier has not been fitted yet")
        data = as_2d(features)
        _, post = self._core.forward(data)
        return softmax(post[-1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(features)
        assert self.classes_ is not None
        return self.classes_[np.argmax(probs, axis=1)]

    def parameter_count(self) -> int:
        if self._core is None:
            return 0
        return self._core.parameter_count()


def scalar_twin(model):
    """A scalar-loop network in exactly ``model``'s current state.

    ``model`` is a production :class:`~repro.ml.mlp.MLPClassifier` or
    :class:`~repro.ml.mlp.MLPRegressor` with a built network; the twin
    copies its hyper-parameters, parameters, velocities, classes and
    generator state, and shares none of its arrays.
    """
    scalar_class = (ScalarMLPClassifier if isinstance(model, MLPClassifier)
                    else ScalarMLPRegressor)
    twin = scalar_class(hidden_sizes=model.hidden_sizes,
                        learning_rate=model.learning_rate,
                        momentum=model.momentum, l2=model.l2,
                        epochs=model.epochs, batch_size=model.batch_size)
    twin.rng = copy.deepcopy(model.rng)
    core = model._core
    twin._core = _MLPCore(core.layer_sizes, core.learning_rate,
                          core.momentum, core.l2, np.random.default_rng(0))
    twin._core.rng = twin.rng
    twin._core.weights = [w[0].copy() for w in core.weights]
    twin._core.biases = [b[0].copy() for b in core.biases]
    w_vel, b_vel = layer_views(core.layer_sizes, core.vel_w, core.vel_b)
    twin._core._w_vel = [v[0].copy() for v in w_vel]
    twin._core._b_vel = [v[0].copy() for v in b_vel]
    if scalar_class is ScalarMLPClassifier:
        twin.classes_ = copy.deepcopy(model.classes_)
    else:
        twin.n_outputs_ = model.n_outputs_
    return twin


def assert_same_network(model, twin) -> None:
    """``model`` and its scalar ``twin`` hold bitwise the same parameters,
    velocities and generator state (the twin's per-layer arrays,
    concatenated, are the model's four flat rows)."""
    core, twin_core = model._core, twin._core
    for name, got, arrays in (
            ("weights", core.flat_w, twin_core.weights),
            ("biases", core.flat_b, twin_core.biases),
            ("weight velocities", core.vel_w, twin_core._w_vel),
            ("bias velocities", core.vel_b, twin_core._b_vel)):
        want = np.concatenate([a.ravel() for a in arrays])[None, :]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
            f"{name} differ"
    assert model.rng.bit_generator.state == twin.rng.bit_generator.state
