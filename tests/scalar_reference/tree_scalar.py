"""The per-sample CART kernel (oracle of the vectorized tree paths).

:mod:`repro.ml.tree` searches splits with one array pass over every
threshold of every feature and routes prediction rows through the tree
level by level.  The split loop here is what that search replaced;
:class:`ScalarDecisionTreeRegressor` grows trees with it by overriding
only the tree's ``_split_search`` attribute.  :func:`predict_row` is the
one-row walk from the root that the batch traversal replaced, and
:func:`trees_identical` compares two fitted trees node by node.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ml.tree import _SPLIT_TOLERANCE, DecisionTreeRegressor, _Node


def best_split_regression(x: np.ndarray, y: np.ndarray, min_leaf: int):
    """Scalar split search (per-sample Python loops)."""
    n_samples, n_features = x.shape
    parent_score = float(np.var(y)) * n_samples
    best = (None, 0.0, parent_score)
    for feature in range(n_features):
        order = np.argsort(x[:, feature], kind="stable")
        xs = x[order, feature]
        ys = y[order]
        cumsum = np.cumsum(ys)
        cumsum_sq = np.cumsum(ys**2)
        total_sum = cumsum[-1]
        total_sq = cumsum_sq[-1]
        for i in range(min_leaf, n_samples - min_leaf + 1):
            if i < 1 or i >= n_samples:
                continue
            if xs[i - 1] == xs[i]:
                continue
            left_n = i
            right_n = n_samples - i
            left_sum = cumsum[i - 1]
            left_sq = cumsum_sq[i - 1]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum**2 / left_n
            right_sse = right_sq - right_sum**2 / right_n
            score = left_sse + right_sse
            if score < best[2] - _SPLIT_TOLERANCE:
                threshold = 0.5 * (xs[i - 1] + xs[i])
                best = (feature, float(threshold), float(score))
    return best


class ScalarDecisionTreeRegressor(DecisionTreeRegressor):
    """Regression tree grown with the per-sample split loop."""

    _split_search = staticmethod(best_split_regression)


def predict_row(tree: DecisionTreeRegressor, row: np.ndarray) -> float:
    """Walk one row from the root to its leaf; return the leaf prediction."""
    node = tree.root_
    if node is None:
        raise RuntimeError("tree has not been fitted yet")
    while not node.is_leaf:
        assert node.feature is not None
        if row[node.feature] <= node.threshold:
            assert node.left is not None
            node = node.left
        else:
            assert node.right is not None
            node = node.right
    return node.prediction


def trees_identical(a: DecisionTreeRegressor,
                    b: DecisionTreeRegressor) -> bool:
    """Structural bitwise equality of two fitted trees.

    Compares split features, thresholds and predictions node by node.
    """

    def walk(na: Optional[_Node], nb: Optional[_Node]) -> bool:
        if (na is None) != (nb is None):
            return False
        if na is None:
            return True
        if (na.feature != nb.feature or na.threshold != nb.threshold
                or na.prediction != nb.prediction):
            return False
        return walk(na.left, nb.left) and walk(na.right, nb.right)

    return walk(a.root_, b.root_)
