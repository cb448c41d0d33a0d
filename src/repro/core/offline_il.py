"""Offline imitation-learning policy (Sec. IV-A1).

The offline IL methodology approximates the Oracle with a supervised model:
the Oracle is executed over the design-time (training) applications, the
Table-I counters observed along the way form the states, and the Oracle's
chosen configurations form the action labels.  The policy is a
neural-network classifier, the representation the online-adaptive policy
keeps adapting at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.control.policy import DRMPolicy
from repro.core.oracle import OracleTable, build_oracle, oracle_results
from repro.ml.mlp import MLPClassifier
from repro.ml.scaling import StandardScaler
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import SoCSimulator
from repro.soc.snippet import Snippet


@dataclass
class ILDataset:
    """Supervised dataset of (counter features, oracle configuration index)."""

    features: np.ndarray
    labels: np.ndarray
    applications: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("features and labels must have the same length")

    def __len__(self) -> int:
        return self.features.shape[0]


def collect_il_dataset(
    simulator: SoCSimulator,
    space: ConfigurationSpace,
    snippets: Sequence[Snippet],
    oracle_table: Optional[OracleTable] = None,
) -> ILDataset:
    """Execute ``snippets`` under the Oracle and collect (state, action) pairs.

    The state for snippet ``k`` is the counter feature vector observed while
    executing snippet ``k-1`` at its Oracle configuration (the information a
    deployed policy would have when making the decision); the label is the
    Oracle configuration index for snippet ``k``.  The first snippet of the
    sequence is skipped because no prior observation exists.  The
    executions are one lane call
    (:func:`~repro.core.oracle.oracle_results`), whose noise factors come
    from the simulator's own generator.
    """
    table = oracle_table or build_oracle(simulator, space, snippets)
    results = oracle_results(simulator, table, snippets,
                             simulator.draw_noise(len(snippets)))
    features = [result.counters.feature_vector() for result in results[:-1]]
    labels = [space.index_of(result.configuration) for result in results[1:]]
    applications = [snippet.application for snippet in snippets[1:]]
    if not features:
        raise ValueError("need at least two snippets to build an IL dataset")
    return ILDataset(
        features=np.vstack(features),
        labels=np.array(labels, dtype=int),
        applications=applications,
    )


class OfflineILPolicy(DRMPolicy):
    """Supervised approximation of the Oracle policy.

    The configuration space's indices serve as the class labels of an
    :class:`~repro.ml.mlp.MLPClassifier`.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        hidden_sizes: Sequence[int] = (24, 24),
        epochs: int = 150,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(space)
        self.scaler = StandardScaler()
        self.classifier = MLPClassifier(
            hidden_sizes=hidden_sizes, epochs=epochs, seed=seed,
            learning_rate=5e-3,
        )
        self._trained = False

    def train(self, dataset: ILDataset) -> "OfflineILPolicy":
        """Fit the policy to an offline IL dataset."""
        scaled = self.scaler.fit_transform(dataset.features)
        self.classifier.ensure_classes(
            classes=range(len(self.space)), n_features=scaled.shape[1]
        )
        self.classifier.partial_fit(scaled, dataset.labels,
                                    epochs=self.classifier.epochs)
        self._trained = True
        return self

    def predict_index(self, counters: PerformanceCounters) -> int:
        if not self._trained:
            raise RuntimeError("OfflineILPolicy has not been trained yet")
        features = self.scaler.transform(counters.feature_vector().reshape(1, -1))
        return int(self.classifier.predict(features)[0])

    def decide(self, counters: Optional[PerformanceCounters]) -> SoCConfiguration:
        if counters is None or not self._trained:
            return self.current
        index = self.predict_index(counters)
        index = max(0, min(len(self.space) - 1, index))
        self.current = self.space[index]
        return self.current

    def accuracy_on(self, dataset: ILDataset) -> float:
        """Top-1 accuracy of the policy against the Oracle labels."""
        scaled = self.scaler.transform(dataset.features)
        predictions = self.classifier.predict(scaled)
        return float(np.mean(predictions == dataset.labels))
