"""Multilayer perceptron with backpropagation (numpy only).

The online-IL policy in the paper "is represented as a neural network and it
is updated using the back-propagation algorithm" (Sec. IV-A3).  The
implementation uses ReLU hidden layers and supports mini-batch SGD with
momentum, incremental ``partial_fit`` (required for runtime policy updates
from the aggregation buffer) and both regression (identity/linear output)
and classification (softmax output) heads.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.base import Classifier, Regressor, as_2d
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


class _FitScratch:
    """Preallocated per-(group size, minibatch size) training buffers.

    One fleet fit round runs ``epochs`` iterations over identically shaped
    minibatches; every intermediate (pre-activations, activations, softmax,
    one-hot targets, per-layer gradients and the flattened gradient /
    update temporaries) is written into these reusable arrays with
    ``out=``, so the hot loop performs no heap allocation beyond the
    per-minibatch sample gather.
    """

    __slots__ = ("z", "act", "grad", "maxb", "sumb", "probs", "onehot",
                 "grad_w", "grad_b", "tmp_w", "tmp_b", "gw3", "gb2",
                 "m_range")

    def __init__(self, n_group: int, m: int, sizes: Sequence[int],
                 w_segments: Sequence[Tuple[int, int]],
                 b_segments: Sequence[Tuple[int, int]],
                 n_w: int, n_b: int) -> None:
        shapes = list(zip(sizes[:-1], sizes[1:]))
        n_classes = sizes[-1]
        self.z = [np.empty((n_group, m, fo)) for _, fo in shapes]
        self.act = [np.empty((n_group, m, fo)) for _, fo in shapes[:-1]]
        self.grad = [np.empty((n_group, m, fo)) for _, fo in shapes[:-1]]
        self.maxb = np.empty((n_group, m))
        self.sumb = np.empty((n_group, m, 1))
        self.probs = np.empty((n_group, m, n_classes))
        self.onehot = np.empty((n_group, m, n_classes))
        self.grad_w = np.empty((n_group, n_w))
        self.grad_b = np.empty((n_group, n_b))
        self.tmp_w = np.empty((n_group, n_w))
        self.tmp_b = np.empty((n_group, n_b))
        self.gw3 = [self.grad_w[:, a:b].reshape(n_group, fi, fo)
                    for (a, b), (fi, fo) in zip(w_segments, shapes)]
        self.gb2 = [self.grad_b[:, a:b] for a, b in b_segments]
        self.m_range = np.arange(m)[None, :]


class FleetMLPStack:
    """Cross-device stacked parameters for same-architecture MLP classifiers.

    The online-IL fleet path adopts every device's classifier once: all
    layers' weights (and biases, and momentum velocities) are packed into
    one persistent flat ``(devices, total_params)`` tensor, and each
    per-layer ``(devices, fan_in, fan_out)`` stack in :attr:`weights` /
    :attr:`biases` is a strided *view* of that flat storage.  The
    classifier's own arrays are re-pointed at the per-device view rows.
    Because the scalar SGD step mutates weights and biases **in place**
    (``+=``), scalar fallbacks and direct ``partial_fit`` calls keep
    writing through the stack, so batched forwards read fresh parameters
    without per-step re-stacking.  Momentum velocities are *rebound* (not
    mutated) by the scalar step, so each batched fit revalidates per-row
    velocity identity and re-syncs only rows a scalar step detached.

    The flat layout lets the SGD parameter update run as six whole-network
    array passes instead of six passes per layer, and every batched
    operation mirrors the scalar :class:`_MLPCore` statement order with
    stacked ``np.matmul`` (per-slice BLAS dispatch — bitwise equal per
    device, unlike einsum), broadcast bias adds and axis-1 reductions, so
    a lockstep fleet stays bitwise identical to independent sequential
    devices.
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
        self.n_layers = len(first.weights)
        self.n_devices = len(cores)
        self._sizes = list(first.layer_sizes)
        shapes = list(zip(self._sizes[:-1], self._sizes[1:]))
        self._w_segments: List[Tuple[int, int]] = []
        self._b_segments: List[Tuple[int, int]] = []
        w_off = b_off = 0
        for fan_in, fan_out in shapes:
            self._w_segments.append((w_off, w_off + fan_in * fan_out))
            self._b_segments.append((b_off, b_off + fan_out))
            w_off += fan_in * fan_out
            b_off += fan_out
        self._n_w = w_off
        self._n_b = b_off
        n = self.n_devices
        self.flat_weights = np.empty((n, self._n_w))
        self.flat_biases = np.empty((n, self._n_b))
        self._flat_w_vel = np.empty((n, self._n_w))
        self._flat_b_vel = np.empty((n, self._n_b))
        self.weights: List[np.ndarray] = [
            self.flat_weights[:, a:b].reshape(n, fi, fo)
            for (a, b), (fi, fo) in zip(self._w_segments, shapes)
        ]
        self.biases: List[np.ndarray] = [
            self.flat_biases[:, a:b] for a, b in self._b_segments
        ]
        w_vel_views = [
            self._flat_w_vel[:, a:b].reshape(n, fi, fo)
            for (a, b), (fi, fo) in zip(self._w_segments, shapes)
        ]
        b_vel_views = [
            self._flat_b_vel[:, a:b] for a, b in self._b_segments
        ]
        # Per-row view objects are stored so velocity re-syncs can compare
        # by identity (a fresh ``view[row]`` would never be ``is``-equal).
        self._w_vel_rows: List[List[np.ndarray]] = []
        self._b_vel_rows: List[List[np.ndarray]] = []
        for row, core in enumerate(cores):
            w_row = [w_vel_views[layer][row] for layer in range(self.n_layers)]
            b_row = [b_vel_views[layer][row] for layer in range(self.n_layers)]
            self._w_vel_rows.append(w_row)
            self._b_vel_rows.append(b_row)
            for layer in range(self.n_layers):
                self.weights[layer][row] = core.weights[layer]
                self.biases[layer][row] = core.biases[layer]
                w_row[layer][...] = core._w_vel[layer]
                b_row[layer][...] = core._b_vel[layer]
                core.weights[layer] = self.weights[layer][row]
                core.biases[layer] = self.biases[layer][row]
                core._w_vel[layer] = w_row[layer]
                core._b_vel[layer] = b_row[layer]
        self._scratch: dict = {}
        self._arange = np.arange(n)

    def _is_full(self, rows: np.ndarray) -> bool:
        return (len(rows) == self.n_devices
                and bool((rows == self._arange).all()))

    def _layer_views(self, flat_w: np.ndarray, flat_b: np.ndarray
                     ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        n_group = flat_w.shape[0]
        shapes = list(zip(self._sizes[:-1], self._sizes[1:]))
        w3 = [flat_w[:, a:b].reshape(n_group, fi, fo)
              for (a, b), (fi, fo) in zip(self._w_segments, shapes)]
        b2 = [flat_b[:, a:b] for a, b in self._b_segments]
        return w3, b2

    def _sync_velocities(self, rows: np.ndarray,
                         cores: Sequence[_MLPCore]) -> None:
        """Re-attach velocities any scalar step rebound since the last fit."""
        for i, core in enumerate(cores):
            w_row = self._w_vel_rows[rows[i]]
            b_row = self._b_vel_rows[rows[i]]
            for layer in range(self.n_layers):
                if core._w_vel[layer] is not w_row[layer]:
                    w_row[layer][...] = core._w_vel[layer]
                    core._w_vel[layer] = w_row[layer]
                if core._b_vel[layer] is not b_row[layer]:
                    b_row[layer][...] = core._b_vel[layer]
                    core._b_vel[layer] = b_row[layer]

    def predict_encoded(self, rows: np.ndarray,
                        features: np.ndarray) -> np.ndarray:
        """Argmax class *positions* for one feature row per device.

        ``features[i]`` is what device ``rows[i]``'s scalar
        ``classifier.predict`` would have received (one sample); the
        stacked forward, row-wise softmax and row-wise argmax reproduce
        each device's scalar prediction exactly (first maximum wins on
        exact ties, like ``np.argmax`` over the single scalar row).  The
        caller maps positions through each classifier's ``classes_``.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if self._is_full(rows):
            w3, b2 = self.weights, self.biases
        else:
            w3, b2 = self._layer_views(self.flat_weights[rows],
                                       self.flat_biases[rows])
        current = features[:, None, :]
        last = self.n_layers - 1
        for layer in range(self.n_layers):
            z = np.matmul(current, w3[layer]) + b2[layer][:, None, :]
            current = relu(z) if layer < last else z
        probs = softmax(current[:, 0, :])
        return np.argmax(probs, axis=1)

    def partial_fit_rows(self, rows: np.ndarray,
                         datasets: Sequence[np.ndarray],
                         encoded: Sequence[np.ndarray],
                         epochs: int) -> None:
        """Batched ``partial_fit`` over a subset of devices (bitwise-equal).

        ``datasets[i]``/``encoded[i]`` are device ``rows[i]``'s training
        matrix (equal sample counts across the subset) and label positions
        in its ``classes_``.  Hyper-parameters (learning rate, momentum,
        l2, batch size) must match across the subset — the caller groups
        by them.  Per-device shuffle orders are pre-drawn from each
        classifier's own generator in epoch order (exactly the scalar draw
        order), then every minibatch runs as stacked matmuls over
        ``(devices, batch, features)`` tensors, writing every intermediate
        into preallocated scratch and applying the SGD step as six
        in-place passes over the flat parameter tensors (bitwise equal to
        the scalar per-layer statements, which are element-independent).
        """
        rows = np.asarray(rows, dtype=np.intp)
        classifiers = [self.classifiers[row] for row in rows]
        cores = [self.cores[row] for row in rows]
        n_samples = datasets[0].shape[0]
        batch_size = classifiers[0].batch_size
        learning_rate = cores[0].learning_rate
        momentum = cores[0].momentum
        l2 = cores[0].l2
        epochs = max(1, int(epochs))
        self._sync_velocities(rows, cores)
        # Device-major pre-draw: device i consumes its own generator's
        # permutations in epoch order, exactly like its scalar run.
        n_group = len(cores)
        perm_all = np.empty((n_group, epochs, n_samples), dtype=np.intp)
        for i, classifier in enumerate(classifiers):
            rng = classifier.rng
            for epoch in range(epochs):
                perm_all[i, epoch] = rng.permutation(n_samples)
        data = np.stack(datasets)
        labels = np.stack(encoded)
        full = self._is_full(rows)
        if full:
            flat_w, flat_b = self.flat_weights, self.flat_biases
            vel_w, vel_b = self._flat_w_vel, self._flat_b_vel
            w3, b2 = self.weights, self.biases
        else:
            flat_w = self.flat_weights[rows]
            flat_b = self.flat_biases[rows]
            vel_w = self._flat_w_vel[rows]
            vel_b = self._flat_b_vel[rows]
            w3, b2 = self._layer_views(flat_w, flat_b)
        n_layers = self.n_layers
        last = n_layers - 1
        device_rows = np.arange(n_group)[:, None]
        for epoch in range(epochs):
            for start in range(0, n_samples, batch_size):
                idx = perm_all[:, epoch, start:start + batch_size]
                m = idx.shape[1]
                buf = self._scratch.get((n_group, m))
                if buf is None:
                    buf = _FitScratch(n_group, m, self._sizes,
                                      self._w_segments, self._b_segments,
                                      self._n_w, self._n_b)
                    self._scratch[(n_group, m)] = buf
                batch = data[device_rows, idx]
                # Forward: buf.z[layer] holds the pre-activation, buf.act
                # the hidden post-activation (post[0] is the batch itself).
                post = batch
                for layer in range(n_layers):
                    z = buf.z[layer]
                    np.matmul(post, w3[layer], out=z)
                    np.add(z, b2[layer][:, None, :], out=z)
                    if layer < last:
                        np.maximum(z, 0.0, out=buf.act[layer])
                        post = buf.act[layer]
                    else:
                        post = z
                # Softmax + cross-entropy gradient (probs - onehot), all
                # written into buf.probs (the scalar statement order of
                # ``softmax``: shift by rowwise max, exp, divide by sum).
                logits = buf.z[last]
                logits.max(axis=2, out=buf.maxb)
                np.subtract(logits, buf.maxb[:, :, None], out=buf.probs)
                np.exp(buf.probs, out=buf.probs)
                buf.probs.sum(axis=2, keepdims=True, out=buf.sumb)
                np.divide(buf.probs, buf.sumb, out=buf.probs)
                buf.onehot.fill(0.0)
                buf.onehot[device_rows, buf.m_range,
                           labels[device_rows, idx]] = 1.0
                np.subtract(buf.probs, buf.onehot, out=buf.probs)
                # Backward: weight/bias gradients land directly in the
                # flat gradient tensors through per-layer strided views.
                grad = buf.probs
                for layer in reversed(range(n_layers)):
                    post = batch if layer == 0 else buf.act[layer - 1]
                    np.matmul(post.transpose(0, 2, 1), grad,
                              out=buf.gw3[layer])
                    # ``mean`` is computed as sum then true_divide; doing
                    # the divide flat below is the same arithmetic.
                    grad.sum(axis=1, out=buf.gb2[layer])
                    if layer > 0:
                        nxt = buf.grad[layer - 1]
                        np.matmul(grad, w3[layer].transpose(0, 2, 1),
                                  out=nxt)
                        # float64 * bool upcasts the mask to exact 0.0/1.0 —
                        # bitwise equal to the scalar ``relu_grad`` multiply.
                        np.multiply(nxt, buf.z[layer - 1] > 0.0, out=nxt)
                        grad = nxt
                # One contiguous pass applies the scalar per-layer ``/ m``
                # to every weight and bias gradient at once
                # (element-independent, and far faster than dividing the
                # strided per-layer views).
                np.divide(buf.grad_w, m, out=buf.grad_w)
                np.divide(buf.grad_b, m, out=buf.grad_b)
                # SGD step over the whole network at once; per-element this
                # is exactly the scalar  dw = wg + l2*w;  v = mom*v - lr*dw;
                # w += v  chain (and db = bg for biases).  Blocks of 16
                # device rows keep the four weight tensors L2-resident
                # across the six passes (element-independent, so blocking
                # cannot change any value).
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
        if not full:
            # Write the trained subset back into the persistent flat
            # storage; the per-classifier views (weights, biases and
            # velocities alike) keep pointing at these rows.
            self.flat_weights[rows] = flat_w
            self.flat_biases[rows] = flat_b
            self._flat_w_vel[rows] = vel_w
            self._flat_b_vel[rows] = vel_b


class MLPRegressor(Regressor):
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

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "MLPRegressor":
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
                    epochs: int = 1) -> "MLPRegressor":
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


class MLPClassifier(Classifier):
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

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MLPClassifier":
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
