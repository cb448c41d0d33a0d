"""Online CPU power model.

Total chip power is modelled as a linear function of physically motivated
features built from the Table-I counters and the active configuration:
per-cluster ``V^2 f x utilisation`` terms (dynamic power), per-cluster voltage
terms (leakage), the external-memory request rate (DRAM power) and a constant
(uncore).  The weights are learned online with recursive least squares so the
model adapts to the running application, as described in Sec. III-A/III-B.

The same feature map is reused by the online-IL runtime Oracle to *predict*
the power of candidate configurations: following the paper, the counter
values observed at the current configuration are reused while the
configuration-dependent terms (V, f) are recomputed for each candidate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.rls import RecursiveLeastSquares, rls_update_fleet
from repro.soc.configuration import SoCConfiguration, SpaceArrays
from repro.soc.counters import PerformanceCounters
from repro.soc.platform import PlatformSpec


class PowerModelFeatures:
    """Feature map from (counters, configuration) to power-model inputs.

    When predicting the power of a *candidate* configuration from counters
    observed at a different (reference) configuration, the busy-core count is
    estimated from the reference utilisation and capped by the candidate's
    active cores — mirroring the paper's "reuse the observed counters"
    approximation while staying physically sensible for core gating.
    """

    FEATURE_NAMES = [
        "big_v2f_busy_cores",
        "little_v2f_busy_cores",
        "big_voltage_active_cores",
        "little_voltage_active_cores",
        "external_requests_per_us",
    ]

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform
        # Per-OPP ``V^2 f / 1e9`` prefixes, filled with the same scalar
        # arithmetic as :meth:`build` so batch features gather bitwise-equal
        # values (one table per cluster, built lazily).
        self._v2f_tables: dict = {}

    @property
    def n_features(self) -> int:
        return len(self.FEATURE_NAMES)

    def _v2f_over_1e9(self, cluster: str) -> np.ndarray:
        table = self._v2f_tables.get(cluster)
        if table is None:
            spec = self.platform.cluster(cluster)
            table = np.array(
                [opp.voltage_v**2 * opp.frequency_hz / 1e9 for opp in spec.opps],
                dtype=float,
            )
            self._v2f_tables[cluster] = table
        return table

    @staticmethod
    def _busy_cores(utilization: float, reference_cores: int,
                    candidate_cores: int) -> float:
        busy = utilization * reference_cores
        return float(min(busy, candidate_cores))

    def build(self, counters: PerformanceCounters, config: SoCConfiguration,
              reference_config: Optional[SoCConfiguration] = None) -> np.ndarray:
        """Feature vector for ``config`` given counters from ``reference_config``.

        ``reference_config`` defaults to ``config`` (the case during model
        updates, where the counters were measured at that configuration).
        """
        reference = reference_config or config
        big = self.platform.cluster("big")
        little = self.platform.cluster("little")
        big_opp = big.opps[config.opp_index("big")]
        little_opp = little.opps[config.opp_index("little")]
        time_s = max(counters.execution_time_s, 1e-9)
        external_rate_per_us = (
            counters.noncache_external_memory_requests / time_s / 1e6
        )
        big_busy = self._busy_cores(
            counters.big_cluster_utilization, reference.cores("big"),
            config.cores("big"),
        )
        little_busy = self._busy_cores(
            counters.little_cluster_utilization, reference.cores("little"),
            config.cores("little"),
        )
        return np.array(
            [
                big_opp.voltage_v**2 * big_opp.frequency_hz / 1e9 * big_busy,
                little_opp.voltage_v**2 * little_opp.frequency_hz / 1e9 * little_busy,
                big_opp.voltage_v * config.cores("big"),
                little_opp.voltage_v * config.cores("little"),
                external_rate_per_us,
            ],
            dtype=float,
        )

    def build_batch(
        self,
        counters: PerformanceCounters,
        candidates: SpaceArrays,
        reference_config: Optional[SoCConfiguration] = None,
    ) -> np.ndarray:
        """Feature matrix for many candidate configurations at once.

        Vectorized twin of :meth:`build`: rows correspond to the rows of
        ``candidates`` (a whole-space :meth:`~repro.soc.configuration
        .ConfigurationSpace.soa_view` or a memoised
        :meth:`~repro.soc.configuration.ConfigurationSpace
        .neighborhood_view`'s arrays), with counters observed at
        ``reference_config``.  When ``reference_config`` is ``None`` each
        candidate acts as its own reference, matching :meth:`build`'s
        default.  Configuration-dependent terms come from the
        struct-of-arrays rows and per-OPP prefix tables, so every row
        equals the corresponding :meth:`build` vector bitwise.
        """
        big = candidates.cluster("big")
        little = candidates.cluster("little")
        big_cores = big.cores_f
        little_cores = little.cores_f
        time_s = max(counters.execution_time_s, 1e-9)
        external_rate_per_us = (
            counters.noncache_external_memory_requests / time_s / 1e6
        )
        if reference_config is not None:
            big_ref_cores = float(reference_config.cores("big"))
            little_ref_cores = float(reference_config.cores("little"))
        else:
            big_ref_cores = big_cores
            little_ref_cores = little_cores
        big_busy = np.minimum(
            counters.big_cluster_utilization * big_ref_cores, big_cores
        )
        little_busy = np.minimum(
            counters.little_cluster_utilization * little_ref_cores, little_cores
        )
        features = np.empty((big_cores.shape[0], len(self.FEATURE_NAMES)))
        features[:, 0] = self._v2f_over_1e9("big")[big.opp_index] * big_busy
        features[:, 1] = (
            self._v2f_over_1e9("little")[little.opp_index] * little_busy
        )
        features[:, 2] = big.voltage_v * big_cores
        features[:, 3] = little.voltage_v * little_cores
        features[:, 4] = external_rate_per_us
        return features


class CpuPowerModel:
    """Online RLS model of total chip power (watts)."""

    def __init__(
        self,
        platform: PlatformSpec,
        forgetting_factor: float = 0.997,
        delta: float = 100.0,
        initial_weights: Optional[np.ndarray] = None,
    ) -> None:
        self.platform = platform
        self.features = PowerModelFeatures(platform)
        self.rls = RecursiveLeastSquares(
            n_features=self.features.n_features,
            forgetting_factor=forgetting_factor,
            delta=delta,
            fit_intercept=True,
            initial_weights=initial_weights,
        )

    def update(self, counters: PerformanceCounters, config: SoCConfiguration,
               measured_power_w: Optional[float] = None) -> float:
        """Consume one observation; returns the a-priori prediction error.

        ``measured_power_w`` defaults to the power recorded in the counters
        (Table I includes total chip power), matching the runtime data flow.
        """
        target = (
            measured_power_w
            if measured_power_w is not None
            else counters.total_chip_power_w
        )
        feature_vector = self.features.build(counters, config)
        return self.rls.update(feature_vector, float(target))

    def predict_batch(
        self,
        counters: PerformanceCounters,
        candidates: SpaceArrays,
        reference_config: Optional[SoCConfiguration] = None,
    ) -> np.ndarray:
        """Predicted power of many candidate configurations in one matmul.

        ``candidates`` reuse the counters observed at ``reference_config``
        (each candidate is its own reference when it is ``None``).  The
        feature matrix is built over the candidates' struct-of-arrays rows
        (bitwise equal to per-candidate :meth:`PowerModelFeatures.build`
        vectors); the RLS prediction itself is a single
        ``(n_candidates, n_features)`` matrix product, equivalent to one
        ``predict_one`` per candidate up to BLAS summation-order round-off.
        """
        features = self.features.build_batch(counters, candidates,
                                             reference_config)
        return np.maximum(0.0, self.rls.predict_batch(features))

    @property
    def n_updates(self) -> int:
        return self.rls.n_updates

    def warm_start(self, observations) -> None:
        """Bootstrap from (counters, config) pairs collected at design time."""
        for counters, config in observations:
            self.update(counters, config)


def fleet_update_power_models(
    models: Sequence[CpuPowerModel],
    counters_list: Sequence[PerformanceCounters],
    candidates: SpaceArrays,
    rls_state: Optional[dict] = None,
) -> np.ndarray:
    """One :meth:`CpuPowerModel.update` per device as a single stacked pass.

    ``candidates`` holds each device's *own executed configuration* as one
    struct-of-arrays row (a :meth:`~repro.soc.configuration
    .ConfigurationSpace.soa_view` gathered at the per-device configuration
    indices), so every feature is built with the same arithmetic as the
    scalar :meth:`PowerModelFeatures.build` (reference == candidate) and
    the N rank-1 RLS updates collapse into one
    :func:`~repro.ml.rls.rls_update_fleet` call — bitwise identical to the
    per-device loop.  The caller guarantees every model's platform carries
    the same OPP values as the space the candidate rows came from (the
    fleet adoption check); the shared per-OPP prefix tables are then
    bitwise interchangeable across models.  ``rls_state`` (a caller-kept
    dict) lets :func:`~repro.ml.rls.rls_update_fleet` reuse its stacked
    weight/precision tensors across lockstep steps.  Returns the a-priori
    errors.
    """
    features_map = models[0].features
    big = candidates.cluster("big")
    little = candidates.cluster("little")
    big_utilization = np.array(
        [c.big_cluster_utilization for c in counters_list])
    little_utilization = np.array(
        [c.little_cluster_utilization for c in counters_list])
    time_s = np.maximum(
        np.array([c.execution_time_s for c in counters_list]), 1e-9)
    external = np.array(
        [c.noncache_external_memory_requests for c in counters_list])
    external_rate_per_us = external / time_s / 1e6
    big_busy = np.minimum(big_utilization * big.cores_f, big.cores_f)
    little_busy = np.minimum(
        little_utilization * little.cores_f, little.cores_f)
    features = np.empty((len(models), len(PowerModelFeatures.FEATURE_NAMES)))
    features[:, 0] = features_map._v2f_over_1e9("big")[big.opp_index] * big_busy
    features[:, 1] = (
        features_map._v2f_over_1e9("little")[little.opp_index] * little_busy
    )
    features[:, 2] = big.voltage_v * big.cores_f
    features[:, 3] = little.voltage_v * little.cores_f
    features[:, 4] = external_rate_per_us
    targets = np.array([c.total_chip_power_w for c in counters_list])
    return rls_update_fleet([model.rls for model in models], features, targets,
                            state=rls_state)
