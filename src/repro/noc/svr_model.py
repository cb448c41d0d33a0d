"""SVR-based NoC latency model (Sec. III-C, ref. [34]).

Following the cited approach, "the channel and source waiting times for the
NoC are estimated through analytical models.  Then, the waiting time obtained
from the analytical models and the waiting time obtained from an NoC
simulator are used as features to learn support vector regression
(SVR)-based model to estimate NoC performance."  The feature vector here
combines the injection rate, average hop count and the analytical model's
channel/source waiting estimates; the target is the latency measured by the
cycle-level simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.metrics import mean_absolute_percentage_error
from repro.ml.scaling import StandardScaler
from repro.ml.svr import SupportVectorRegressor
from repro.noc.analytical import AnalyticalNoCModel
from repro.noc.router import RouterConfig
from repro.noc.simulator import NoCSimulator
from repro.noc.topology import MeshTopology
from repro.noc.traffic import UniformRandomTraffic
from repro.utils.rng import SeedLike, derive_seed


@dataclass
class NoCSample:
    """One (traffic configuration, measured latency) training sample."""

    injection_rate: float
    packet_size_flits: int
    analytical_latency: float
    analytical_waiting: float
    analytical_source_wait: float
    average_hops: float
    simulated_latency: float

    def features(self) -> np.ndarray:
        return np.array(
            [
                self.injection_rate,
                float(self.packet_size_flits),
                self.analytical_latency,
                self.analytical_waiting,
                self.analytical_source_wait,
                self.average_hops,
            ],
            dtype=float,
        )


def build_noc_training_set(
    topology: MeshTopology,
    injection_rates: Sequence[float],
    packet_sizes: Sequence[int] = (4,),
    n_cycles: int = 400,
    router: Optional[RouterConfig] = None,
    seed: SeedLike = 0,
) -> List[NoCSample]:
    """Sweep injection rates / packet sizes and collect training samples."""
    router_config = router or RouterConfig()
    simulator = NoCSimulator(topology, router_config)
    analytical = AnalyticalNoCModel(topology, router_config)
    samples: List[NoCSample] = []
    for size in packet_sizes:
        for rate in injection_rates:
            traffic = UniformRandomTraffic(
                topology, injection_rate=rate, packet_size_flits=size,
                seed=derive_seed(seed, [size, int(rate * 10000)]),
            )
            estimate = analytical.estimate(traffic.rate_matrix(), size_flits=size)
            result = simulator.run(traffic, n_cycles=n_cycles)
            if result.n_delivered == 0:
                continue
            samples.append(
                NoCSample(
                    injection_rate=float(rate),
                    packet_size_flits=int(size),
                    analytical_latency=estimate.average_latency_cycles,
                    analytical_waiting=estimate.average_waiting_cycles,
                    analytical_source_wait=estimate.average_source_queue_cycles,
                    average_hops=result.average_hops(),
                    simulated_latency=result.average_latency_cycles,
                )
            )
    return samples


class SVRNoCLatencyModel:
    """SVR latency predictor over analytical + structural features."""

    def __init__(self, c: float = 50.0, epsilon: float = 0.05,
                 gamma: Optional[float] = None) -> None:
        self.scaler = StandardScaler()
        self.svr = SupportVectorRegressor(c=c, epsilon=epsilon, gamma=gamma,
                                          max_iterations=4000)
        self._trained = False

    def fit(self, samples: Sequence[NoCSample]) -> "SVRNoCLatencyModel":
        if len(samples) < 3:
            raise ValueError("need at least 3 samples to train the SVR model")
        features = np.vstack([s.features() for s in samples])
        # Replace saturated (infinite) analytical estimates with a large cap so
        # the SVR can still learn from near-saturation samples.
        features = np.nan_to_num(features, posinf=1e4, neginf=0.0)
        targets = np.array([s.simulated_latency for s in samples])
        scaled = self.scaler.fit_transform(features)
        self.svr.fit(scaled, targets)
        self._trained = True
        return self

    def predict(self, samples: Sequence[NoCSample]) -> np.ndarray:
        if not self._trained:
            raise RuntimeError("SVRNoCLatencyModel has not been fitted yet")
        features = np.vstack([s.features() for s in samples])
        features = np.nan_to_num(features, posinf=1e4, neginf=0.0)
        scaled = self.scaler.transform(features)
        return self.svr.predict(scaled)

    def evaluate(self, samples: Sequence[NoCSample]) -> Tuple[float, np.ndarray]:
        """Return (MAPE %, predictions) against the simulated latencies."""
        predictions = self.predict(samples)
        targets = np.array([s.simulated_latency for s in samples])
        return mean_absolute_percentage_error(targets, predictions), predictions
