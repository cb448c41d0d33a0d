"""Multilayer perceptron with backpropagation (numpy only).

The online-IL policy in the paper "is represented as a neural network and it
is updated using the back-propagation algorithm" (Sec. IV-A3).  The
implementation uses ReLU hidden layers and supports mini-batch SGD with
momentum, incremental ``partial_fit`` (required for runtime policy updates
from the aggregation buffer) and both regression (identity/linear output)
and classification (softmax output) heads.

Every network keeps its weights, biases and momentum velocities as four
flat ``(1, n)`` rows, and every network trains and predicts through the
same two functions: :func:`sgd_train` runs minibatch SGD on any number of
same-architecture networks at once, :func:`forward` evaluates them.  A
lone network is a one-row call on its own rows; a :class:`FleetMLPStack`
stacks many networks' rows and trains a subset of them in one call.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import Classifier, Regressor, as_2d
from repro.utils.rng import make_rng


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def layer_views(sizes: Sequence[int], flat_w: np.ndarray, flat_b: np.ndarray
                ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-layer views of flat ``(rows, n)`` parameter storage.

    Layer ``l``'s weights are the ``(rows, fan_in, fan_out)`` view of its
    segment of ``flat_w``, its biases the ``(rows, fan_out)`` view of its
    segment of ``flat_b``; writing through a view writes the storage.
    """
    rows = flat_w.shape[0]
    weights: List[np.ndarray] = []
    biases: List[np.ndarray] = []
    w_off = b_off = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat_w[:, w_off:w_off + fan_in * fan_out]
                       .reshape(rows, fan_in, fan_out))
        biases.append(flat_b[:, b_off:b_off + fan_out])
        w_off += fan_in * fan_out
        b_off += fan_out
    return weights, biases


def shuffle_orders(rng: np.random.Generator, n_samples: int,
                   epochs: int) -> np.ndarray:
    """``(epochs, n_samples)`` sample orders, one row per epoch.

    The same orders, and the same generator state afterwards, as
    ``epochs`` calls of ``rng.permutation(n_samples)``, in one call.
    """
    return rng.permuted(np.tile(np.arange(n_samples), (epochs, 1)), axis=1)


def forward(weights: Sequence[np.ndarray], biases: Sequence[np.ndarray],
            batch: np.ndarray) -> np.ndarray:
    """Output-layer pre-activations of ``rows`` networks.

    ``batch`` is ``(rows, samples, features)``; row ``i`` goes through the
    network whose per-layer parameters are ``weights[l][i]`` and
    ``biases[l][i]`` (see :func:`layer_views`).  Stacked ``np.matmul``
    dispatches BLAS per 2-D slice, so each row's result is bitwise what
    that network alone computes.
    """
    current = batch
    last = len(weights) - 1
    for layer, (weight, bias) in enumerate(zip(weights, biases)):
        z = np.matmul(current, weight) + bias[:, None, :]
        current = relu(z) if layer < last else z
    return current


class _FitScratch:
    """Training buffers for one (networks, minibatch size) shape.

    Every intermediate of one SGD iteration (pre-activations, activations,
    softmax, one-hot targets, per-layer gradients and the flat gradient /
    update temporaries) is written into these arrays with ``out=``, so
    the epoch loop allocates nothing beyond the per-minibatch sample
    gather.
    """

    __slots__ = ("z", "act", "grad", "maxb", "sumb", "out_grad", "onehot",
                 "grad_w", "grad_b", "tmp_w", "tmp_b", "gw3", "gb2",
                 "m_range")

    def __init__(self, n_group: int, m: int, sizes: Sequence[int],
                 n_w: int, n_b: int) -> None:
        fan_outs = sizes[1:]
        self.z = [np.empty((n_group, m, fo)) for fo in fan_outs]
        self.act = [np.empty((n_group, m, fo)) for fo in fan_outs[:-1]]
        self.grad = [np.empty((n_group, m, fo)) for fo in fan_outs[:-1]]
        self.maxb = np.empty((n_group, m))
        self.sumb = np.empty((n_group, m, 1))
        self.out_grad = np.empty((n_group, m, sizes[-1]))
        self.onehot = np.empty((n_group, m, sizes[-1]))
        self.grad_w = np.empty((n_group, n_w))
        self.grad_b = np.empty((n_group, n_b))
        self.tmp_w = np.empty((n_group, n_w))
        self.tmp_b = np.empty((n_group, n_b))
        self.gw3, self.gb2 = layer_views(sizes, self.grad_w, self.grad_b)
        self.m_range = np.arange(m)[None, :]


def sgd_train(sizes: Sequence[int], flat_w: np.ndarray, flat_b: np.ndarray,
              vel_w: np.ndarray, vel_b: np.ndarray, data: np.ndarray,
              targets: np.ndarray, orders: np.ndarray, batch_size: int,
              learning_rate: float, momentum: float, l2: float,
              classify: bool) -> None:
    """Minibatch SGD with momentum on ``rows`` networks at once, in place.

    ``flat_w``/``flat_b`` and their velocities ``vel_w``/``vel_b`` are
    ``(rows, n)`` storage (:func:`layer_views` layout) that every step
    updates in place.  ``data`` is ``(rows, samples, features)``;
    ``orders[i, epoch]`` is row ``i``'s sample order in that epoch
    (:func:`shuffle_orders`).  With ``classify`` the head is softmax
    cross-entropy and ``targets`` holds ``(rows, samples)`` class
    positions; otherwise it is squared error (output gradient
    ``2·(out − y)``) against ``(rows, samples, outputs)`` targets.

    Per row, every step is the textbook per-network statement sequence:
    forward, output gradient, backward (``grad_w = post.T @ grad / m``,
    ``grad_b = mean(grad)``, ReLU-masked backpropagation), then
    ``dw = grad_w + l2·w;  v = momentum·v − lr·dw;  w += v`` (``db =
    grad_b`` for biases), so a one-row call is exactly one network's
    training and a many-row call equals its rows trained one by one.
    """
    n_group, epochs, n_samples = orders.shape
    n_layers = len(sizes) - 1
    last = n_layers - 1
    w3, b2 = layer_views(sizes, flat_w, flat_b)
    device_rows = np.arange(n_group)[:, None]
    scratch: Dict[int, _FitScratch] = {}
    for epoch in range(epochs):
        for start in range(0, n_samples, batch_size):
            idx = orders[:, epoch, start:start + batch_size]
            m = idx.shape[1]
            buf = scratch.get(m)
            if buf is None:
                buf = scratch[m] = _FitScratch(n_group, m, sizes,
                                               flat_w.shape[1],
                                               flat_b.shape[1])
            batch = data[device_rows, idx]
            # Forward: buf.z[layer] holds the pre-activation, buf.act the
            # hidden post-activation (the input layer's is the batch).
            post = batch
            for layer in range(n_layers):
                z = buf.z[layer]
                np.matmul(post, w3[layer], out=z)
                np.add(z, b2[layer][:, None, :], out=z)
                if layer < last:
                    np.maximum(z, 0.0, out=buf.act[layer])
                    post = buf.act[layer]
            out = buf.z[last]
            grad = buf.out_grad
            if classify:
                # Softmax (shift by the rowwise max, exp, divide by the
                # sum) minus the one-hot targets.
                out.max(axis=2, out=buf.maxb)
                np.subtract(out, buf.maxb[:, :, None], out=grad)
                np.exp(grad, out=grad)
                grad.sum(axis=2, keepdims=True, out=buf.sumb)
                np.divide(grad, buf.sumb, out=grad)
                buf.onehot.fill(0.0)
                buf.onehot[device_rows, buf.m_range,
                           targets[device_rows, idx]] = 1.0
                np.subtract(grad, buf.onehot, out=grad)
            else:
                np.subtract(out, targets[device_rows, idx], out=grad)
                np.multiply(grad, 2.0, out=grad)
            # Backward: weight/bias gradient sums land directly in the
            # flat gradient rows through per-layer strided views.
            for layer in reversed(range(n_layers)):
                post = batch if layer == 0 else buf.act[layer - 1]
                np.matmul(post.transpose(0, 2, 1), grad, out=buf.gw3[layer])
                grad.sum(axis=1, out=buf.gb2[layer])
                if layer > 0:
                    nxt = buf.grad[layer - 1]
                    np.matmul(grad, w3[layer].transpose(0, 2, 1), out=nxt)
                    # float64 * bool upcasts the ReLU mask to exact 0.0/1.0.
                    np.multiply(nxt, buf.z[layer - 1] > 0.0, out=nxt)
                    grad = nxt
            # ``/ m`` for every layer's gradients in one contiguous pass
            # (``mean`` is the same sum-then-divide).
            np.divide(buf.grad_w, m, out=buf.grad_w)
            np.divide(buf.grad_b, m, out=buf.grad_b)
            # The momentum step over whole networks at once, in blocks of
            # 16 rows that keep the four weight arrays L2-resident across
            # the six passes (element-wise, so blocking changes no value).
            grad_w, tmp_w = buf.grad_w, buf.tmp_w
            for s in range(0, n_group, 16):
                rows_s = slice(s, s + 16)
                w_s, v_s, t_s = flat_w[rows_s], vel_w[rows_s], tmp_w[rows_s]
                np.multiply(w_s, l2, out=t_s)
                np.add(grad_w[rows_s], t_s, out=t_s)
                np.multiply(t_s, learning_rate, out=t_s)
                np.multiply(v_s, momentum, out=v_s)
                np.subtract(v_s, t_s, out=v_s)
                np.add(w_s, v_s, out=w_s)
            np.multiply(buf.grad_b, learning_rate, out=buf.tmp_b)
            np.multiply(vel_b, momentum, out=vel_b)
            np.subtract(vel_b, buf.tmp_b, out=vel_b)
            np.add(flat_b, vel_b, out=flat_b)


class _MLPCore:
    """One network: its architecture, SGD hyper-parameters and flat rows.

    ``flat_w``/``flat_b`` (weights, biases) and ``vel_w``/``vel_b`` (their
    momentum velocities) are ``(1, n)`` rows that training only ever
    updates in place.  ``weights``/``biases`` are per-layer views of them
    (:func:`layer_views`), derived whenever the rows are bound and never
    pickled or deep-copied as separate state.
    """

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
        shapes = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        flat_w = np.concatenate([
            rng.normal(0.0, np.sqrt(2.0 / float(fan_in)),
                       size=(fan_in, fan_out)).ravel()
            for fan_in, fan_out in shapes
        ])[None, :]
        flat_b = np.zeros((1, sum(fan_out for _, fan_out in shapes)))
        self.bind(flat_w, flat_b, np.zeros_like(flat_w), np.zeros_like(flat_b))

    def bind(self, flat_w: np.ndarray, flat_b: np.ndarray,
             vel_w: np.ndarray, vel_b: np.ndarray) -> None:
        """Point the network at four ``(1, n)`` rows (its own or a stack's)."""
        self.flat_w, self.flat_b = flat_w, flat_b
        self.vel_w, self.vel_b = vel_w, vel_b
        self.weights, self.biases = layer_views(self.layer_sizes,
                                                flat_w, flat_b)

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["weights"], state["biases"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.bind(self.flat_w, self.flat_b, self.vel_w, self.vel_b)


class FleetMLPStack:
    """Cross-device stacked storage for same-architecture MLP classifiers.

    The online-IL fleet path adopts every device's classifier once: its
    network's four flat rows (weights, biases and their momentum
    velocities) are copied into one ``(devices, n)`` array apiece, and the
    network is re-pointed at its rows (:meth:`_MLPCore.bind`).  Training
    only ever updates those rows in place, so whatever trains a device —
    :meth:`partial_fit_rows` or the classifier's own ``partial_fit`` —
    trains it on the stack, and :meth:`predict_encoded` always reads
    current parameters.  Each per-layer ``(devices, fan_in, fan_out)``
    stack in :attr:`weights` / :attr:`biases` is a view of the storage.
    """

    def __init__(self, classifiers: Sequence["MLPClassifier"]) -> None:
        cores: List[_MLPCore] = []
        for classifier in classifiers:
            core = classifier._core
            if core is None:
                raise ValueError(
                    "every classifier must be initialised (fit or "
                    "ensure_classes) before fleet adoption"
                )
            cores.append(core)
        first = cores[0]
        for core in cores[1:]:
            if core.layer_sizes != first.layer_sizes:
                raise ValueError(
                    "fleet MLP stack requires one shared architecture"
                )
        if len(set(cores)) != len(cores):
            raise ValueError(
                "fleet MLP stack requires distinct classifier instances"
            )
        self.classifiers = list(classifiers)
        self.cores = cores
        self.n_devices = len(cores)
        self._sizes = list(first.layer_sizes)
        self.flat_weights = np.concatenate([core.flat_w for core in cores])
        self.flat_biases = np.concatenate([core.flat_b for core in cores])
        self._flat_w_vel = np.concatenate([core.vel_w for core in cores])
        self._flat_b_vel = np.concatenate([core.vel_b for core in cores])
        for row, core in enumerate(cores):
            rows = slice(row, row + 1)
            core.bind(self.flat_weights[rows], self.flat_biases[rows],
                      self._flat_w_vel[rows], self._flat_b_vel[rows])
        self.weights, self.biases = layer_views(
            self._sizes, self.flat_weights, self.flat_biases)
        self._arange = np.arange(self.n_devices)

    def _is_full(self, rows: np.ndarray) -> bool:
        return (len(rows) == self.n_devices
                and bool((rows == self._arange).all()))

    def predict_encoded(self, rows: np.ndarray,
                        features: np.ndarray) -> np.ndarray:
        """Argmax class *positions* for one feature row per device.

        ``features[i]`` is what device ``rows[i]``'s ``classifier.predict``
        would have received (one sample); one stacked :func:`forward`,
        row-wise softmax and row-wise argmax reproduce each device's
        prediction exactly (first maximum wins on exact ties).  The caller
        maps positions through each classifier's ``classes_``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if self._is_full(rows):
            w3, b2 = self.weights, self.biases
        else:
            w3, b2 = layer_views(self._sizes, self.flat_weights[rows],
                                 self.flat_biases[rows])
        logits = forward(w3, b2, features[:, None, :])
        return np.argmax(softmax(logits[:, 0, :]), axis=1)

    def partial_fit_rows(self, rows: np.ndarray,
                         datasets: Sequence[np.ndarray],
                         encoded: Sequence[np.ndarray],
                         epochs: int) -> None:
        """``partial_fit`` of a subset of devices as one :func:`sgd_train`.

        ``datasets[i]``/``encoded[i]`` are device ``rows[i]``'s training
        matrix (equal sample counts across the subset) and label positions
        in its ``classes_``.  Hyper-parameters (learning rate, momentum,
        l2, batch size) must match across the subset — the caller groups
        by them.  Each device's sample orders come from its classifier's
        own generator, so every device ends exactly as its own
        ``partial_fit`` would leave it.
        """
        rows = np.asarray(rows, dtype=np.intp)
        classifiers = [self.classifiers[row] for row in rows]
        core = self.cores[rows[0]]
        epochs = max(1, int(epochs))
        n_samples = datasets[0].shape[0]
        orders = np.stack([shuffle_orders(classifier.rng, n_samples, epochs)
                           for classifier in classifiers])
        storage = (self.flat_weights, self.flat_biases,
                   self._flat_w_vel, self._flat_b_vel)
        full = self._is_full(rows)
        trained = storage if full else tuple(array[rows] for array in storage)
        sgd_train(self._sizes, *trained, np.stack(datasets),
                  np.stack(encoded), orders, classifiers[0].batch_size,
                  core.learning_rate, core.momentum, core.l2, classify=True)
        if not full:
            for array, rows_trained in zip(storage, trained):
                array[rows] = rows_trained


class _MLPBase:
    """Hyper-parameters and network storage shared by both heads."""

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

    def _build(self, n_features: int, n_outputs: int) -> None:
        sizes = [n_features, *self.hidden_sizes, n_outputs]
        self._core = _MLPCore(sizes, self.learning_rate, self.momentum,
                              self.l2, self.rng)

    def _train(self, data: np.ndarray, targets: np.ndarray, epochs: int,
               classify: bool) -> None:
        """``epochs`` epochs of SGD: a one-row :func:`sgd_train` call on
        the network's own rows (a stack's rows, once adopted)."""
        core = self._core
        assert core is not None
        orders = shuffle_orders(self.rng, data.shape[0], epochs)
        sgd_train(core.layer_sizes, core.flat_w, core.flat_b, core.vel_w,
                  core.vel_b, data[None], targets[None], orders[None],
                  self.batch_size, core.learning_rate, core.momentum,
                  core.l2, classify)

    def _logits(self, features: np.ndarray) -> np.ndarray:
        core = self._core
        assert core is not None
        return forward(core.weights, core.biases, as_2d(features)[None])[0]

    def parameter_count(self) -> int:
        """Number of trainable parameters (storage-overhead reporting)."""
        if self._core is None:
            return 0
        return int(self._core.flat_w.size + self._core.flat_b.size)


def _regression_targets(features: np.ndarray, targets: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
    data = as_2d(features)
    targ = np.asarray(targets, dtype=float)
    if targ.ndim == 1:
        targ = targ.reshape(-1, 1)
    return data, targ


class MLPRegressor(_MLPBase, Regressor):
    """Feed-forward regression network (possibly multi-output)."""

    #: Width of the output layer, set when the network is built.
    n_outputs_: int = 1

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MLPRegressor":
        data, targ = _regression_targets(features, targets)
        if data.shape[0] != targ.shape[0]:
            raise ValueError("features and targets must have the same length")
        self._build(data.shape[1], targ.shape[1])
        self.n_outputs_ = targ.shape[1]
        self._train(data, targ, self.epochs, classify=False)
        return self

    def partial_fit(self, features: np.ndarray, targets: np.ndarray,
                    epochs: int = 1) -> "MLPRegressor":
        """Incrementally train on a new batch without reinitialising weights."""
        data, targ = _regression_targets(features, targets)
        if self._core is None:
            self._build(data.shape[1], targ.shape[1])
            self.n_outputs_ = targ.shape[1]
        self._train(data, targ, max(1, int(epochs)), classify=False)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self._core is None:
            raise RuntimeError("MLPRegressor has not been fitted yet")
        out = self._logits(features)
        if self.n_outputs_ == 1:
            return out.ravel()
        return out


class MLPClassifier(_MLPBase, Classifier):
    """Feed-forward softmax classifier used for the IL configuration policy."""

    #: Sorted class labels, set by ``fit`` or ``ensure_classes``.
    classes_: Optional[np.ndarray] = None

    def _encode(self, labels: np.ndarray) -> np.ndarray:
        # ``classes_`` is sorted (np.unique / ensure_classes), so the
        # label-to-index mapping is one vectorized binary search; callers
        # (fit/partial_fit) have already validated label membership.
        assert self.classes_ is not None
        return np.searchsorted(self.classes_, labels).astype(int)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MLPClassifier":
        data = as_2d(features)
        labs = np.asarray(labels).ravel().astype(int)
        if data.shape[0] != labs.shape[0]:
            raise ValueError("features and labels must have the same length")
        self.classes_ = np.unique(labs)
        self._build(data.shape[1], len(self.classes_))
        self._train(data, self._encode(labs), self.epochs, classify=True)
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
                    epochs: int = 1) -> "MLPClassifier":
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
        self._train(data, self._encode(labs), max(1, int(epochs)),
                    classify=True)
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._core is None or self.classes_ is None:
            raise RuntimeError("MLPClassifier has not been fitted yet")
        return softmax(self._logits(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        probs = self.predict_proba(features)
        assert self.classes_ is not None
        return self.classes_[np.argmax(probs, axis=1)]
