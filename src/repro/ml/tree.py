"""CART regression trees.

Regression-tree based IL policies are one of the "off-the-shelf machine
learning models" used by the offline IL works [18, 19] the paper builds on;
here they fit the explicit-NMPC surfaces.  The implementation is a standard
greedy CART: binary splits on single features, variance reduction, with
depth / minimum-samples stopping rules.

Both training and inference are NumPy-vectorized.  Split search evaluates
every candidate threshold of every feature at once with cumulative-sum SSE,
and ``predict`` routes the whole input matrix through the tree level by
level instead of walking one row at a time.  The per-sample split loop and
the one-row walk they replaced live in
``tests/scalar_reference/tree_scalar.py``: the vectorized paths reproduce
their splits, tie-breaking and predictions bitwise, which the equivalence
suite in ``tests/test_ml_tree_equivalence.py`` and the
``benchmarks/test_bench_ml_kernels.py`` perf gate both assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.ml.base import Regressor, as_1d, as_2d

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


@dataclass
class _FlatTree:
    """Array form of a fitted tree for level-by-level batch traversal.

    ``feature[k] == -1`` marks node ``k`` as a leaf; internal nodes route to
    ``left[k]`` / ``right[k]``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray


class DecisionTreeRegressor(Regressor):
    """CART regression tree minimising squared error."""

    #: Split search ``(x, y, min_leaf) -> (feature, threshold, score)``; a
    #: class attribute so that a test subclass can grow trees with another
    #: search.
    _split_search = staticmethod(_best_split_regression)

    def __init__(self, max_depth: int = 8, min_samples_split: int = 4,
                 min_samples_leaf: int = 2) -> None:
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
        for k, node in enumerate(nodes):
            flat.prediction[k] = node.prediction
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
