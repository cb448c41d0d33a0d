"""Experience aggregation buffer for online imitation learning (Sec. IV-A3).

"The best configuration found by the analytical models ... and performance
counters in Table I are inserted in a buffer after each policy decision.
This training data is aggregated until the buffer is full.  Subsequently, the
policy is updated using the training data and the buffer is reset.  The size
of this buffer determines the training accuracy and implementation overhead."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.soc.counters import FEATURE_NAMES


@dataclass
class BufferedSample:
    """One (state features, oracle label) pair awaiting a policy update."""

    features: np.ndarray
    label: int


class AggregationBuffer:
    """Fixed-capacity training buffer that signals when it is full."""

    def __init__(self, capacity: int = 100) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._samples: List[BufferedSample] = []
        self.total_inserted = 0
        self.flush_count = 0

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def is_full(self) -> bool:
        return len(self._samples) >= self.capacity

    def insert(self, features: np.ndarray, label: int) -> bool:
        """Insert one sample; returns True when the buffer became full."""
        vector = np.asarray(features, dtype=float).ravel()
        self._samples.append(BufferedSample(features=vector, label=int(label)))
        self.total_inserted += 1
        return self.is_full

    def drain(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return all samples as (features matrix, label vector) and reset."""
        if not self._samples:
            raise RuntimeError("cannot drain an empty buffer")
        features = np.vstack([s.features for s in self._samples])
        labels = np.array([s.label for s in self._samples], dtype=int)
        self._samples.clear()
        self.flush_count += 1
        return features, labels

    def storage_bytes(self) -> int:
        """Approximate storage footprint of a full buffer.

        The paper reports that a buffer of 100 input/output control states
        requires less than 20 KB; this helper lets the benchmarks verify the
        reproduction stays in the same ballpark.
        """
        if self._samples:
            per_sample = self._samples[0].features.nbytes + 8
        else:
            per_sample = 8 * len(FEATURE_NAMES) + 8
        return self.capacity * per_sample
