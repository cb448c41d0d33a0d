"""Statistics helpers: a median and a vectorized trailing mean.

The experiments smooth several 0/1 decision series with a trailing moving
average (Fig. 3 accuracy curves, near-optimal rates).  The naive
``for i: nanmean(values[max(0, i - window + 1):i + 1])`` loop is
O(n * window) in Python; :func:`trailing_nanmean` computes the same series
with two cumulative sums in O(n).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def median(values: Sequence[float]) -> float:
    """``float(np.median(values))`` of a flat sequence, bitwise.

    ``np.median`` imports ``numpy.ma`` on its first call, which costs a
    process ~16 ms and ~1 MiB; this sorts instead.  It averages the
    middle value (or two) the way ``np.mean`` does: their sum starting
    from ``0.0`` (so a median of ``-0.0`` is ``0.0``), divided by their
    count.  A NaN sorts last and makes the median NaN.  An empty sequence
    raises :class:`ValueError`.
    """
    ordered = np.sort(np.asarray(values, dtype=float), axis=None).tolist()
    count = len(ordered)
    if count == 0:
        raise ValueError("median of an empty sequence")
    if ordered[-1] != ordered[-1]:  # NaN
        return ordered[-1]
    half = count // 2
    if count % 2:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2.0


def trailing_nanmean(values: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average of the last ``window`` values, ignoring NaNs.

    Element ``i`` is ``nanmean(values[max(0, i - window + 1):i + 1])``:
    windows at the head of the series shrink instead of being padded, NaN
    entries are excluded from both the numerator and the denominator, and a
    window containing only NaNs yields NaN (without the ``RuntimeWarning``
    the scalar ``np.nanmean`` loop used to emit).

    For 0/1 indicator series — every caller in the experiments — the
    cumulative sums are exact integer arithmetic in float64, so the result is
    bitwise identical to the scalar loop.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D series, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        return np.empty(0, dtype=float)
    valid = ~np.isnan(arr)
    padded_sums = np.concatenate(([0.0], np.cumsum(np.where(valid, arr, 0.0))))
    padded_counts = np.concatenate(([0], np.cumsum(valid.astype(np.int64))))
    upper = np.arange(1, n + 1)
    lower = np.maximum(0, upper - window)
    sums = padded_sums[upper] - padded_sums[lower]
    counts = padded_counts[upper] - padded_counts[lower]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / counts, np.nan)
