"""Online performance models (Sec. III-B).

Two models are provided:

* :class:`CpuPerformanceModel` — predicts snippet execution time on the
  big.LITTLE SoC for *candidate* configurations from the counters observed at
  the current configuration (:func:`predict_time_s`).  It follows the
  analytical frequency-scaling form used by the cited GPU/CPU models
  [12, 30, 31]: the busy cycles observed at the reference configuration are
  split into a frequency-independent part and a memory-stall part that
  grows linearly with frequency (DRAM latency is constant in wall-clock
  time), and the per-cycle work is divided by the number of cores the
  workload can keep busy.  The single coupling coefficient (the effective
  DRAM latency seen per L2 miss) is learned online with recursive least
  squares, so the model adapts to the running workload while the
  per-snippet counters provide the instantaneous workload intensity.

* :class:`FrameTimeModel` — the adaptive GPU frame-time model of Figure 2:
  predicts the next frame's processing time from the previous frame's
  workload proxies (busy cycles, memory traffic) and the chosen frequency,
  updated online with (optionally adaptive-forgetting) RLS.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml.rls import RecursiveLeastSquares, rls_update_fleet
from repro.models.staff import StabilizedAdaptiveForgettingRLS
from repro.soc.configuration import SoCConfiguration, SpaceArrays
from repro.soc.counters import PerformanceCounters
from repro.soc.platform import PlatformSpec


class PerformanceModelFeatures:
    """Feature helpers of the CPU time model.

    The per-cluster OPP frequency of a configuration and the big-cluster
    busy cycles observed at it, used when updating the online latency
    coefficient.
    """

    FEATURE_NAMES = ["l2_miss_rate_times_frequency"]

    def __init__(self, platform: PlatformSpec) -> None:
        self.platform = platform

    def frequency_ghz(self, config: SoCConfiguration, cluster: str) -> float:
        """Frequency (GHz) of ``cluster``'s OPP in ``config``."""
        spec = self.platform.cluster(cluster)
        return spec.opps[config.opp_index(cluster)].frequency_hz / 1e9

    def big_busy_cycles(self, counters: PerformanceCounters,
                        reference: SoCConfiguration) -> float:
        """Big-cluster busy cycles observed at the reference configuration."""
        busy_core_seconds = (
            counters.big_cluster_utilization * reference.cores("big")
            * counters.execution_time_s
        )
        return busy_core_seconds * self.frequency_ghz(reference, "big") * 1e9

    def build(self, counters: PerformanceCounters,
              config: SoCConfiguration) -> np.ndarray:
        """RLS feature vector for the latency-coefficient model."""
        instr = max(counters.instructions_retired, 1.0)
        miss_rate = counters.l2_cache_misses / instr
        return np.array([miss_rate * self.frequency_ghz(config, "big")],
                        dtype=float)


class CpuPerformanceModel:
    """Counter-scaling execution-time model with an online latency coefficient.

    Model structure (big cluster, the critical path for the workloads here)::

        cycles_big(f) = cycles_big(f_ref) + L * l2_misses * (f - f_ref)
        time_big(f)   = cycles_big(f) / (f * effective_cores)

    where ``L`` (nanoseconds of DRAM latency charged per L2 miss) is the only
    learned quantity; it is estimated online by recursive least squares from
    the observed big-cluster CPI versus the ``miss-rate x frequency`` feature,
    with exponential forgetting so it can drift with the workload's locality.
    The LITTLE-cluster time is scaled by its frequency ratio only, and the
    total predicted time is the slower of the two cluster paths.
    """

    def __init__(
        self,
        platform: PlatformSpec,
        forgetting_factor: float = 0.995,
        delta: float = 10.0,
        initial_latency_ns: float = 80.0,
    ) -> None:
        self.platform = platform
        self.features = PerformanceModelFeatures(platform)
        self.rls = RecursiveLeastSquares(
            n_features=1,
            forgetting_factor=forgetting_factor,
            delta=delta,
            initial_weights=np.array([initial_latency_ns, 0.5]),
        )
        self.initial_latency_ns = float(initial_latency_ns)

    # ------------------------------------------------------------------ #
    def latency_ns(self) -> float:
        """Current estimate of the per-miss DRAM latency (clamped positive)."""
        return float(max(self.rls.coef_[0], 0.0))

    def _observed_big_cpi(self, counters: PerformanceCounters,
                          config: SoCConfiguration) -> float:
        cycles = self.features.big_busy_cycles(counters, config)
        return cycles / max(counters.instructions_retired, 1.0)

    def update(self, counters: PerformanceCounters,
               config: SoCConfiguration) -> float:
        """Consume one observation; returns the a-priori CPI prediction error."""
        feature = self.features.build(counters, config)
        target = self._observed_big_cpi(counters, config)
        return self.rls.update(feature, target)

    @property
    def n_updates(self) -> int:
        return self.rls.n_updates


def predict_time_s(
    *,
    latency_ns,
    big_utilization,
    little_utilization,
    execution_time_s,
    l2_misses,
    big_reference_cores,
    little_reference_cores,
    big_reference_ghz,
    little_reference_ghz,
    big_cores: np.ndarray,
    little_cores: np.ndarray,
    big_ghz: np.ndarray,
    little_ghz: np.ndarray,
) -> np.ndarray:
    """Predicted execution time (s) of candidate configurations.

    Evaluates :class:`CpuPerformanceModel`'s structure at each candidate's
    active cores and cluster frequencies, reusing the counters observed at
    the reference configuration (whose core counts and frequencies are
    given), following the paper's approximation.  ``latency_ns`` is the
    model's clamped latency coefficient
    (:meth:`CpuPerformanceModel.latency_ns`).  The per-candidate loop
    also floors the busy cores at 1e-3 before capping them; the 0.25 floor
    applied after the cap makes that floor a no-op, so it is not repeated
    here.

    Per-device inputs are Python scalars for one device or ``(devices,
    1)`` columns for a fleet; the candidate arrays are ``(candidates,)``
    or ``(devices, candidates)``.  The per-candidate loop in
    ``tests/scalar_reference/runtime_oracle_loop.py`` gives bitwise
    identical times.
    """
    big_cycles_ref = (big_utilization * big_reference_cores * execution_time_s
                      * big_reference_ghz * 1e9)
    big_cycles = np.maximum(
        big_cycles_ref + latency_ns * l2_misses * (big_ghz - big_reference_ghz),
        0.1 * big_cycles_ref,
    )
    # The workload cannot use more cores than it has runnable threads
    # (busy cores at the reference), nor more than the candidate powers on,
    # and counts as at least a quarter core.
    effective = np.maximum(
        0.25, np.minimum(big_utilization * big_reference_cores, big_cores))
    big_time = big_cycles / (big_ghz * 1e9 * effective)

    little_cycles = (little_utilization * little_reference_cores
                     * execution_time_s * little_reference_ghz * 1e9)
    little_effective = np.minimum(
        little_utilization * little_reference_cores, little_cores)
    little_time = little_cycles / (
        little_ghz * 1e9 * np.maximum(little_effective, 0.25)
    )
    return np.maximum(np.maximum(big_time, little_time), 1e-9)


def fleet_update_performance_models(
    models: Sequence[CpuPerformanceModel],
    counters_list: Sequence[PerformanceCounters],
    candidates: SpaceArrays,
    rls_state: Optional[dict] = None,
) -> np.ndarray:
    """One :meth:`CpuPerformanceModel.update` per device as a stacked pass.

    ``candidates`` holds each device's executed configuration as one
    struct-of-arrays row; the per-device ``miss-rate x frequency`` feature
    and observed big-cluster CPI target are built elementwise in the scalar
    path's operation order, and the N rank-1 updates become one
    :func:`~repro.ml.rls.rls_update_fleet` call — bitwise identical to the
    per-device loop.  Same platform-equality precondition (and the same
    cross-step ``rls_state`` reuse) as
    :func:`~repro.models.power.fleet_update_power_models`.  Returns the
    a-priori CPI errors.
    """
    big = candidates.cluster("big")
    instructions = np.maximum(
        np.array([c.instructions_retired for c in counters_list]), 1.0)
    miss_rate = np.array(
        [c.l2_cache_misses for c in counters_list]) / instructions
    features = (miss_rate * big.frequency_ghz)[:, None]
    big_utilization = np.array(
        [c.big_cluster_utilization for c in counters_list])
    time_s = np.array([c.execution_time_s for c in counters_list])
    busy_core_seconds = big_utilization * big.cores_f * time_s
    cycles = busy_core_seconds * big.frequency_ghz * 1e9
    targets = cycles / instructions
    return rls_update_fleet([model.rls for model in models], features, targets,
                            state=rls_state)


class FrameTimeModel:
    """Adaptive GPU frame-time prediction model (Figure 2).

    The model predicts the processing time of the *next* frame from the
    previous frame's observed busy cycles and memory traffic together with
    the frequency (and slice count) chosen for the next frame::

        t ≈ w1 * prev_cycles / (f * s^alpha) + w2 * prev_bytes + w0

    With a scene that changes slowly relative to the frame rate this tracks
    the measured frame time within a few percent, and the forgetting factor
    lets it re-converge quickly after scene or frequency changes.
    """

    def __init__(
        self,
        forgetting_factor: float = 0.95,
        adaptive: bool = False,
        slice_scaling_alpha: float = 0.9,
        delta: float = 10.0,
    ) -> None:
        self.slice_scaling_alpha = float(slice_scaling_alpha)
        n_features = 2
        if adaptive:
            self.rls: RecursiveLeastSquares = StabilizedAdaptiveForgettingRLS(
                n_features=n_features,
                initial_forgetting_factor=forgetting_factor,
                delta=delta,
            )
        else:
            self.rls = RecursiveLeastSquares(
                n_features=n_features,
                forgetting_factor=forgetting_factor,
                delta=delta,
            )
        self.adaptive = bool(adaptive)

    def _features(self, prev_busy_cycles: float, prev_memory_bytes: float,
                  frequency_hz: float, active_slices: int) -> np.ndarray:
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        throughput = frequency_hz * float(active_slices) ** self.slice_scaling_alpha
        return np.array(
            [prev_busy_cycles / throughput, prev_memory_bytes / 1e9],
            dtype=float,
        )

    def predict_frame_time_s(self, prev_busy_cycles: float,
                             prev_memory_bytes: float, frequency_hz: float,
                             active_slices: int = 1) -> float:
        features = self._features(prev_busy_cycles, prev_memory_bytes,
                                  frequency_hz, active_slices)
        return max(0.0, self.rls.predict_one(features))

    def update(self, prev_busy_cycles: float, prev_memory_bytes: float,
               frequency_hz: float, active_slices: int,
               measured_frame_time_s: float) -> float:
        """Consume one frame observation; returns the a-priori error."""
        features = self._features(prev_busy_cycles, prev_memory_bytes,
                                  frequency_hz, active_slices)
        return self.rls.update(features, float(measured_frame_time_s))
