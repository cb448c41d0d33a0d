"""CART decision trees (regression and classification).

Regression-tree based IL policies are one of the "off-the-shelf machine
learning models" used by the offline IL works [18, 19] the paper builds on.
The implementation is a standard greedy CART: binary splits on single
features, variance reduction (regression) or Gini impurity (classification),
with depth / minimum-samples stopping rules.

Both training and inference are NumPy-vectorized.  Split search evaluates
every candidate threshold of every feature at once — cumulative-sum SSE for
regression, one-hot cumulative class counts and Gini for classification —
and ``predict`` / ``predict_proba`` route the whole input matrix through the
tree level by level instead of walking one row at a time.  The per-sample
split loops and the one-row walk they replaced live in
``tests/scalar_reference/tree_scalar.py``: the vectorized paths reproduce their
splits, tie-breaking and predictions bitwise, which the equivalence suite
in ``tests/test_ml_tree_equivalence.py`` and the
``benchmarks/test_bench_ml_kernels.py`` perf gate both assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.base import Classifier, Regressor, as_1d, as_2d

#: A candidate split must beat the incumbent by more than this margin, so
#: float noise cannot flip ties; earlier (feature, threshold) candidates win.
_SPLIT_TOLERANCE = 1e-12


@dataclass
class _Node:
    """One node of a binary decision tree."""

    prediction: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    class_counts: Optional[np.ndarray] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _sequential_best(scores: np.ndarray, initial_best: float) -> Tuple[int, float]:
    """Replay the scalar candidate scan over a precomputed score vector.

    The scalar kernels accept a candidate only when it beats the running best
    by more than ``_SPLIT_TOLERANCE``, so the winner depends on scan order,
    not just on the minimum.  A candidate the scan accepts is necessarily a
    strict prefix minimum (every earlier candidate — accepted or skipped —
    scored higher), so one vectorized ``minimum.accumulate`` pass shrinks the
    scan to the prefix-minima subsequence (typically ~log n entries) and the
    exact tolerance chain is replayed over just those.  Returns
    ``(-1, initial_best)`` when nothing qualifies.
    """
    n = scores.shape[0]
    if n == 0:
        return -1, float(initial_best)
    is_record = scores < initial_best
    if n > 1:
        prefix_min = np.minimum.accumulate(scores[:-1])
        is_record[1:] &= scores[1:] < prefix_min
    best = float(initial_best)
    index = -1
    for candidate in np.nonzero(is_record)[0]:
        score = scores[candidate]
        if score < best - _SPLIT_TOLERANCE:
            index = int(candidate)
            best = float(score)
    return index, best


def _candidate_validity(xs: np.ndarray, n_samples: int, min_leaf: int) -> np.ndarray:
    """Mask of admissible split positions per feature (shape (n-1, features)).

    Candidate ``i`` puts the first ``i`` sorted samples on the left; it is
    valid when both children satisfy ``min_leaf`` and the sorted feature
    values actually change across the boundary.
    """
    i = np.arange(1, n_samples)
    valid = ((i >= min_leaf) & (i <= n_samples - min_leaf))[:, None]
    return valid & (xs[:-1] != xs[1:])


def _best_split_regression(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Return (feature, threshold, score) minimising weighted child variance.

    Vectorized over all thresholds of all features: per-feature stable sorts,
    cumulative sums of ``y`` and ``y**2``, and the SSE identity
    ``sum((y - mean)^2) = sum(y^2) - sum(y)^2 / n`` evaluated for every
    prefix/suffix pair at once.  Candidates are then scanned in the scalar
    kernel's order (feature-major, threshold-ascending) so the selected split
    and its score are bitwise identical to the per-sample scalar loop.
    """
    n_samples, n_features = x.shape
    parent_score = float(np.var(y)) * n_samples
    best = (None, 0.0, parent_score)
    if n_samples < 2:
        return best
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    ys = y[order]
    cumsum = np.cumsum(ys, axis=0)
    cumsum_sq = np.cumsum(ys**2, axis=0)
    left_n = np.arange(1, n_samples, dtype=float)[:, None]
    right_n = float(n_samples) - left_n
    left_sum = cumsum[:-1]
    left_sq = cumsum_sq[:-1]
    right_sum = cumsum[-1][None, :] - left_sum
    right_sq = cumsum_sq[-1][None, :] - left_sq
    left_sse = left_sq - left_sum**2 / left_n
    right_sse = right_sq - right_sum**2 / right_n
    scores = left_sse + right_sse
    scores[~_candidate_validity(xs, n_samples, min_leaf)] = np.inf
    index, score = _sequential_best(scores.ravel(order="F"), parent_score)
    if index < 0:
        return best
    feature, row = divmod(index, n_samples - 1)
    threshold = 0.5 * (xs[row, feature] + xs[row + 1, feature])
    return (int(feature), float(threshold), float(score))


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p**2))


def _best_split_classification(x: np.ndarray, y: np.ndarray, n_classes: int,
                               min_leaf: int):
    """Return (feature, threshold, score) minimising weighted Gini impurity.

    One-hot encodes the sorted labels per feature and takes a cumulative sum,
    which yields the left-child class-count matrix for every candidate
    threshold in one pass (the right child is the integer complement against
    the parent counts — no float drift).  Candidate scanning mirrors the
    scalar kernel's order, so splits match the per-sample scalar loop
    bitwise.
    """
    n_samples, n_features = x.shape
    parent_counts = np.bincount(y, minlength=n_classes)
    parent_score = _gini(parent_counts) * n_samples
    best = (None, 0.0, parent_score)
    if n_samples < 2:
        return best
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    ys = y[order]
    one_hot = np.zeros((n_samples, n_features, n_classes), dtype=np.int64)
    np.put_along_axis(one_hot, ys[:, :, None], 1, axis=2)
    left_counts = np.cumsum(one_hot, axis=0)[:-1]
    right_counts = parent_counts[None, None, :] - left_counts
    left_n = np.arange(1, n_samples)
    right_n = n_samples - left_n
    p_left = left_counts / left_n[:, None, None]
    p_right = right_counts / right_n[:, None, None]
    gini_left = 1.0 - np.sum(p_left**2, axis=2)
    gini_right = 1.0 - np.sum(p_right**2, axis=2)
    scores = gini_left * left_n[:, None] + gini_right * right_n[:, None]
    scores[~_candidate_validity(xs, n_samples, min_leaf)] = np.inf
    index, score = _sequential_best(scores.ravel(order="F"), parent_score)
    if index < 0:
        return best
    feature, row = divmod(index, n_samples - 1)
    threshold = 0.5 * (xs[row, feature] + xs[row + 1, feature])
    return (int(feature), float(threshold), float(score))


@dataclass
class _FlatTree:
    """Array form of a fitted tree for level-by-level batch traversal.

    ``feature[k] == -1`` marks node ``k`` as a leaf; internal nodes route to
    ``left[k]`` / ``right[k]``.  ``class_counts`` is only present for
    classifiers (one row of training-label counts per node).
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray
    class_counts: Optional[np.ndarray] = None


class _BaseTree:
    """Common tree construction machinery."""

    def __init__(self, max_depth: int, min_samples_split: int,
                 min_samples_leaf: int) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.root_: Optional[_Node] = None
        self.n_features_: int = 0
        self._flat: Optional[_FlatTree] = None

    def _flatten(self) -> _FlatTree:
        """Flatten the node tree into arrays (cached until the next fit)."""
        if self._flat is not None:
            return self._flat
        if self.root_ is None:
            raise RuntimeError("tree has not been fitted yet")
        nodes: List[_Node] = [self.root_]
        cursor = 0
        while cursor < len(nodes):
            node = nodes[cursor]
            cursor += 1
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                nodes.append(node.left)
                nodes.append(node.right)
        index = {id(node): k for k, node in enumerate(nodes)}
        n = len(nodes)
        flat = _FlatTree(
            feature=np.full(n, -1, dtype=np.int64),
            threshold=np.zeros(n, dtype=float),
            left=np.zeros(n, dtype=np.int64),
            right=np.zeros(n, dtype=np.int64),
            prediction=np.zeros(n, dtype=float),
        )
        if nodes[0].class_counts is not None:
            flat.class_counts = np.zeros(
                (n, nodes[0].class_counts.shape[0]), dtype=np.int64
            )
        for k, node in enumerate(nodes):
            flat.prediction[k] = node.prediction
            if flat.class_counts is not None:
                flat.class_counts[k] = node.class_counts
            if not node.is_leaf:
                flat.feature[k] = node.feature
                flat.threshold[k] = node.threshold
                flat.left[k] = index[id(node.left)]
                flat.right[k] = index[id(node.right)]
        self._flat = flat
        return flat

    def _batch_leaf_indices(self, x: np.ndarray) -> np.ndarray:
        """Route all rows of ``x`` to their leaves, one tree level per step.

        Uses the same ``row[feature] <= threshold`` comparison as a walk from
        the root one row at a time, so the destination leaves — and therefore
        the predictions — are identical.
        """
        flat = self._flatten()
        nodes = np.zeros(x.shape[0], dtype=np.int64)
        active = np.nonzero(flat.feature[nodes] >= 0)[0]
        while active.size:
            node_ids = nodes[active]
            go_left = (x[active, flat.feature[node_ids]]
                       <= flat.threshold[node_ids])
            nodes[active] = np.where(go_left, flat.left[node_ids],
                                     flat.right[node_ids])
            active = active[flat.feature[nodes[active]] >= 0]
        return nodes

    def depth(self) -> int:
        """Return the depth of the fitted tree (root-only tree has depth 1)."""

        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 1 if node is not None else 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    def node_count(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return 1 + walk(node.left) + walk(node.right)

        return walk(self.root_)


class DecisionTreeRegressor(_BaseTree, Regressor):
    """CART regression tree minimising squared error."""

    #: Split search ``(x, y, min_leaf) -> (feature, threshold, score)``; a
    #: class attribute so that a test subclass can grow trees with another
    #: search.
    _split_search = staticmethod(_best_split_regression)

    def __init__(self, max_depth: int = 8, min_samples_split: int = 4,
                 min_samples_leaf: int = 2) -> None:
        super().__init__(max_depth, min_samples_split, min_samples_leaf)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTreeRegressor":
        x = as_2d(features)
        y = as_1d(targets)
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and targets must have the same length")
        self.n_features_ = x.shape[1]
        self._flat = None
        self.root_ = self._grow(x, y, depth=1)
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(prediction=float(np.mean(y)))
        if depth >= self.max_depth or x.shape[0] < self.min_samples_split:
            return node
        if np.allclose(y, y[0]):
            return node
        feature, threshold, _ = self._split_search(x, y, self.min_samples_leaf)
        if feature is None:
            return node
        mask = x[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1)
        node.right = self._grow(x[~mask], y[~mask], depth + 1)
        return node

    def predict(self, features: np.ndarray) -> np.ndarray:
        x = as_2d(features)
        flat = self._flatten()
        return flat.prediction[self._batch_leaf_indices(x)]


class DecisionTreeClassifier(_BaseTree, Classifier):
    """CART classification tree minimising Gini impurity."""

    #: Split search ``(x, y, n_classes, min_leaf) -> (feature, threshold,
    #: score)``; a class attribute, like the regressor's.
    _split_search = staticmethod(_best_split_classification)

    def __init__(self, max_depth: int = 8, min_samples_split: int = 4,
                 min_samples_leaf: int = 2) -> None:
        super().__init__(max_depth, min_samples_split, min_samples_leaf)
        self.classes_: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTreeClassifier":
        x = as_2d(features)
        y = np.asarray(labels).ravel().astype(int)
        if x.shape[0] != y.shape[0]:
            raise ValueError("features and labels must have the same length")
        self.classes_ = np.unique(y)
        encoded = np.searchsorted(self.classes_, y)
        self.n_features_ = x.shape[1]
        self._flat = None
        self.root_ = self._grow(x, encoded, depth=1, n_classes=len(self.classes_))
        return self

    def _grow(self, x: np.ndarray, y: np.ndarray, depth: int, n_classes: int) -> _Node:
        counts = np.bincount(y, minlength=n_classes)
        node = _Node(prediction=float(np.argmax(counts)), class_counts=counts)
        if depth >= self.max_depth or x.shape[0] < self.min_samples_split:
            return node
        if len(np.unique(y)) == 1:
            return node
        feature, threshold, _ = self._split_search(x, y, n_classes,
                                                   self.min_samples_leaf)
        if feature is None:
            return node
        mask = x[:, feature] <= threshold
        if mask.sum() < self.min_samples_leaf or (~mask).sum() < self.min_samples_leaf:
            return node
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(x[mask], y[mask], depth + 1, n_classes)
        node.right = self._grow(x[~mask], y[~mask], depth + 1, n_classes)
        return node

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.classes_ is None:
            raise RuntimeError("DecisionTreeClassifier has not been fitted yet")
        x = as_2d(features)
        flat = self._flatten()
        encoded = flat.prediction[self._batch_leaf_indices(x)].astype(int)
        return self.classes_[encoded]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-class probabilities, shape (n_samples, n_classes).

        Column ``j`` corresponds to ``classes_[j]``; each row is the
        training-label distribution of the leaf the sample lands in.
        """
        if self.classes_ is None:
            raise RuntimeError("DecisionTreeClassifier has not been fitted yet")
        x = as_2d(features)
        flat = self._flatten()
        counts = flat.class_counts[self._batch_leaf_indices(x)].astype(float)
        return counts / counts.sum(axis=1, keepdims=True)
