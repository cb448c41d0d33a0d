"""The per-candidate runtime-Oracle sweep (oracle of ``candidate_batch``).

:class:`~repro.core.runtime_oracle.RuntimeOracle` predicts the power and
time of a whole candidate neighbourhood with one array pass per model.
These functions are the loop it replaced: one scalar power prediction
(:func:`predict_power`) and one scalar time prediction
(:func:`predict_time_s`) per candidate of the space's memoised
:meth:`~repro.soc.configuration.ConfigurationSpace.neighbor_indices`
table, then Python's ``min`` over the estimate list, which keeps the
first minimum.  :func:`neighbors` filters the neighbourhood out of the
whole space instead; it is the independent reference the tests check
that table against, and stays out of the timed sweep.
:func:`power_features` (counters observed at a reference configuration
other than the candidate) and :func:`little_busy_cycles` are scalar
feature helpers only this loop needs; the models' own scalar helpers
serve their per-observation updates.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.runtime_oracle import CandidateEstimate, RuntimeOracle
from repro.models.performance import (
    CpuPerformanceModel,
    PerformanceModelFeatures,
)
from repro.models.power import CpuPowerModel, PowerModelFeatures
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters


def neighbors(space: ConfigurationSpace, config: SoCConfiguration,
              radius: int = 1) -> List[SoCConfiguration]:
    """The configurations of ``space`` near ``config``, in space order.

    Near means within ``radius`` OPP steps on every cluster and within
    ``radius`` cores on every cluster (the cores of an ungated cluster
    never vary in the space); ``config`` itself is near.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    return [
        candidate for candidate in space
        if all(
            abs(candidate.opp_index(name) - config.opp_index(name)) <= radius
            and abs(candidate.cores(name) - config.cores(name)) <= radius
            for name in space.cluster_order)
    ]


def _busy_cores(utilization: float, reference_cores: int,
                candidate_cores: int) -> float:
    busy = utilization * reference_cores
    return float(min(busy, candidate_cores))


def power_features(features: PowerModelFeatures,
                   counters: PerformanceCounters, config: SoCConfiguration,
                   reference_config: Optional[SoCConfiguration] = None
                   ) -> np.ndarray:
    """Power features of ``config`` given counters from ``reference_config``.

    ``reference_config`` defaults to ``config``, where this equals
    :meth:`~repro.models.power.PowerModelFeatures.build`.
    """
    reference = reference_config or config
    big = features.platform.cluster("big")
    little = features.platform.cluster("little")
    big_opp = big.opps[config.opp_index("big")]
    little_opp = little.opps[config.opp_index("little")]
    time_s = max(counters.execution_time_s, 1e-9)
    external_rate_per_us = (
        counters.noncache_external_memory_requests / time_s / 1e6
    )
    big_busy = _busy_cores(
        counters.big_cluster_utilization, reference.cores("big"),
        config.cores("big"),
    )
    little_busy = _busy_cores(
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


def predict_power(model: CpuPowerModel, counters: PerformanceCounters,
                  config: SoCConfiguration,
                  reference_config: Optional[SoCConfiguration] = None) -> float:
    """Predicted power at ``config`` reusing counters from ``reference_config``."""
    feature_vector = power_features(model.features, counters, config,
                                    reference_config)
    return max(0.0, model.rls.predict_one(feature_vector))


def little_busy_cycles(features: PerformanceModelFeatures,
                       counters: PerformanceCounters,
                       reference: SoCConfiguration) -> float:
    """LITTLE-cluster busy cycles observed at the reference configuration."""
    busy_core_seconds = (
        counters.little_cluster_utilization * reference.cores("little")
        * counters.execution_time_s
    )
    return (busy_core_seconds * features.frequency_ghz(reference, "little")
            * 1e9)


def effective_big_cores(counters: PerformanceCounters,
                        reference_cores: int, candidate_cores: int) -> float:
    """Big cores the snippet can keep busy at the candidate configuration."""
    busy = max(counters.big_cluster_utilization * reference_cores, 1e-3)
    # The workload cannot use more cores than it has runnable threads
    # (busy cores at the reference), nor more than the candidate powers on.
    return float(max(0.25, min(busy, candidate_cores)))


def predict_time_s(model: CpuPerformanceModel, counters: PerformanceCounters,
                   config: SoCConfiguration,
                   reference_config: Optional[SoCConfiguration] = None) -> float:
    """Predict the execution time of a snippet at ``config``.

    ``counters`` are the values observed at ``reference_config`` (which
    defaults to ``config``); they are reused for the candidate following
    the paper's approximation.
    """
    reference = reference_config or config
    feats = model.features
    latency_ns = model.latency_ns()

    ref_big_freq = feats.frequency_ghz(reference, "big")
    cand_big_freq = feats.frequency_ghz(config, "big")
    big_cycles_ref = feats.big_busy_cycles(counters, reference)
    delta_freq = cand_big_freq - ref_big_freq
    big_cycles_cand = max(
        big_cycles_ref + latency_ns * counters.l2_cache_misses * delta_freq,
        0.1 * big_cycles_ref,
    )
    effective = effective_big_cores(
        counters, reference.cores("big"), config.cores("big")
    )
    big_time = big_cycles_cand / (cand_big_freq * 1e9 * effective)

    little_cycles = little_busy_cycles(feats, counters, reference)
    little_busy_cores = max(
        counters.little_cluster_utilization * reference.cores("little"), 1e-3
    )
    little_cores = min(little_busy_cores, config.cores("little"))
    little_time = little_cycles / (
        feats.frequency_ghz(config, "little") * 1e9 * max(little_cores, 0.25)
    )

    predicted = max(big_time, little_time)
    return float(max(predicted, 1e-9))


def candidate_estimates(oracle: RuntimeOracle, counters: PerformanceCounters,
                        current: SoCConfiguration) -> List[CandidateEstimate]:
    """Predicted power/time/energy for every candidate configuration."""
    space = oracle.space
    candidates = [space[i] for i in space.neighbor_indices(
        space.index_of(current), oracle.neighborhood_radius)]
    estimates: List[CandidateEstimate] = []
    for candidate in candidates:
        power = predict_power(oracle.power_model, counters, candidate,
                              reference_config=current)
        time_s = predict_time_s(oracle.performance_model, counters, candidate,
                                reference_config=current)
        estimates.append(
            CandidateEstimate(
                configuration=candidate,
                predicted_power_w=power,
                predicted_time_s=time_s,
            )
        )
    return estimates


def best_configuration(
    oracle: RuntimeOracle, counters: PerformanceCounters,
    current: SoCConfiguration,
) -> Tuple[SoCConfiguration, CandidateEstimate]:
    """The candidate with the minimum predicted energy."""
    estimates = candidate_estimates(oracle, counters, current)
    best = min(estimates, key=lambda est: est.predicted_energy_j)
    return best.configuration, best
