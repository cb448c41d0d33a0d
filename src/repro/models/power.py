"""Online CPU power model.

Total chip power is modelled as a linear function of physically motivated
features built from the Table-I counters and the active configuration:
per-cluster ``V^2 f x utilisation`` terms (dynamic power), per-cluster voltage
terms (leakage), the external-memory request rate (DRAM power) and a constant
(uncore).  The weights are learned online with recursive least squares so the
model adapts to the running application, as described in Sec. III-A/III-B.

The same features, computed over arrays by :func:`power_features`, let the
online-IL runtime Oracle *predict* the power of candidate configurations
(:func:`predict_power_w`): following the paper, the counter values observed
at the current configuration are reused while the configuration-dependent
terms (V, f) are recomputed for each candidate.
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

    :meth:`build` is the scalar map the per-observation :meth:`CpuPowerModel
    .update` uses; :func:`power_features` computes the same terms over
    arrays of candidate configurations.
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

    def build(self, counters: PerformanceCounters,
              config: SoCConfiguration) -> np.ndarray:
        """Feature vector for ``config`` from counters observed at ``config``."""
        big = self.platform.cluster("big")
        little = self.platform.cluster("little")
        big_opp = big.opps[config.opp_index("big")]
        little_opp = little.opps[config.opp_index("little")]
        time_s = max(counters.execution_time_s, 1e-9)
        external_rate_per_us = (
            counters.noncache_external_memory_requests / time_s / 1e6
        )
        big_cores = config.cores("big")
        little_cores = config.cores("little")
        big_busy = float(min(counters.big_cluster_utilization * big_cores,
                             big_cores))
        little_busy = float(min(
            counters.little_cluster_utilization * little_cores, little_cores))
        return np.array(
            [
                big_opp.voltage_v**2 * big_opp.frequency_hz / 1e9 * big_busy,
                little_opp.voltage_v**2 * little_opp.frequency_hz / 1e9 * little_busy,
                big_opp.voltage_v * big_cores,
                little_opp.voltage_v * little_cores,
                external_rate_per_us,
            ],
            dtype=float,
        )


def power_features(
    feature_map: PowerModelFeatures,
    *,
    big_utilization,
    little_utilization,
    execution_time_s,
    external_requests,
    big_reference_cores,
    little_reference_cores,
    big_opp_index: np.ndarray,
    little_opp_index: np.ndarray,
    big_cores: np.ndarray,
    little_cores: np.ndarray,
    big_voltage_v: np.ndarray,
    little_voltage_v: np.ndarray,
) -> np.ndarray:
    """Power-model features of candidate configurations, ``(..., 5)``.

    The counters (utilisations, execution time, external requests) were
    observed at a reference configuration with the given active core
    counts; following the paper they are reused for every candidate,
    while the configuration-dependent terms (V, f, active cores) come from
    the candidate knob arrays.  The busy-core count is the reference
    utilisation times the reference cores, capped by the candidate's
    active cores, which keeps core gating physically sensible.

    Per-device inputs are Python scalars for one device or ``(devices,
    1)`` columns for a fleet; the candidate arrays are ``(candidates,)``
    or ``(devices, candidates)``, and the result has their shape plus one
    feature axis.  The per-OPP ``V^2 f`` prefixes come from
    ``feature_map``'s tables, filled with :meth:`PowerModelFeatures.build`'s
    scalar arithmetic, so with each row its own reference (``(devices,)``
    rows of one configuration each, as :func:`fleet_update_power_models`
    passes them) every row equals that method's vector bitwise.
    """
    time_s = np.maximum(execution_time_s, 1e-9)
    external_rate_per_us = external_requests / time_s / 1e6
    big_busy = np.minimum(big_utilization * big_reference_cores, big_cores)
    little_busy = np.minimum(little_utilization * little_reference_cores,
                             little_cores)
    features = np.empty(np.shape(big_cores)
                        + (len(PowerModelFeatures.FEATURE_NAMES),))
    features[..., 0] = feature_map._v2f_over_1e9("big")[big_opp_index] * big_busy
    features[..., 1] = (
        feature_map._v2f_over_1e9("little")[little_opp_index] * little_busy
    )
    features[..., 2] = big_voltage_v * big_cores
    features[..., 3] = little_voltage_v * little_cores
    features[..., 4] = external_rate_per_us
    return features


def predict_power_w(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """RLS power prediction over a :func:`power_features` array, floored at 0.

    ``weights`` are one model's intercept-last RLS weights, ``(6,)``, or a
    fleet's ``(devices, 6)`` stack against ``(devices, candidates, 5)``
    features.  Each device's candidates are one gemv, so a device's
    predictions are bitwise the same alone and in a stacked call.
    """
    return np.maximum(
        0.0,
        np.matmul(features, weights[..., :-1, None])[..., 0]
        + weights[..., -1:],
    )


class CpuPowerModel:
    """Online RLS model of total chip power (watts)."""

    def __init__(
        self,
        platform: PlatformSpec,
        forgetting_factor: float = 0.997,
        delta: float = 100.0,
    ) -> None:
        self.platform = platform
        self.features = PowerModelFeatures(platform)
        self.rls = RecursiveLeastSquares(
            n_features=self.features.n_features,
            forgetting_factor=forgetting_factor,
            delta=delta,
        )

    def update(self, counters: PerformanceCounters,
               config: SoCConfiguration) -> float:
        """Consume one observation; returns the a-priori prediction error.

        The target is the total chip power the counters record (Table I
        includes it), matching the runtime data flow.
        """
        feature_vector = self.features.build(counters, config)
        return self.rls.update(feature_vector,
                               float(counters.total_chip_power_w))

    @property
    def n_updates(self) -> int:
        return self.rls.n_updates


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
    indices), so :func:`power_features` with each row as its own
    reference builds the scalar :meth:`PowerModelFeatures.build` vectors
    bitwise, and the N rank-1 RLS updates collapse into one
    :func:`~repro.ml.rls.rls_update_fleet` call — bitwise identical to the
    per-device loop.  The caller guarantees every model's platform carries
    the same OPP values as the space the candidate rows came from (the
    fleet adoption check); the shared per-OPP prefix tables are then
    bitwise interchangeable across models.  ``rls_state`` (a caller-kept
    dict) lets :func:`~repro.ml.rls.rls_update_fleet` reuse its stacked
    weight/precision tensors across lockstep steps.  Returns the a-priori
    errors.
    """
    big = candidates.cluster("big")
    little = candidates.cluster("little")
    features = power_features(
        models[0].features,
        big_utilization=np.array(
            [c.big_cluster_utilization for c in counters_list]),
        little_utilization=np.array(
            [c.little_cluster_utilization for c in counters_list]),
        execution_time_s=np.array(
            [c.execution_time_s for c in counters_list]),
        external_requests=np.array(
            [c.noncache_external_memory_requests for c in counters_list]),
        big_reference_cores=big.cores_f,
        little_reference_cores=little.cores_f,
        big_opp_index=big.opp_index,
        little_opp_index=little.opp_index,
        big_cores=big.cores_f,
        little_cores=little.cores_f,
        big_voltage_v=big.voltage_v,
        little_voltage_v=little.voltage_v,
    )
    targets = np.array([c.total_chip_power_w for c in counters_list])
    return rls_update_fleet([model.rls for model in models], features, targets,
                            state=rls_state)
