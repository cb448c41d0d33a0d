"""Runtime approximation of the Oracle (Sec. IV-A3).

"Before each control decision, these models and the state data are used to
estimate the energy consumption of candidate configurations in a local
neighborhood of the current configuration ... the configuration with the
minimum energy consumption is marked as the optimal configuration and added
to the runtime approximation of the Oracle."

The :class:`RuntimeOracle` asks the online power and performance models (not
the simulator!) for the predicted power and execution time of each candidate
configuration, reusing the counters observed at the current configuration as
the paper prescribes, and returns the candidate minimising the predicted
energy (or energy-delay product).

The candidate sweep is vectorized end to end: the neighbourhood comes from
the configuration space's memoised index tables, the candidate features
form one ``(n_candidates, n_features)`` matrix, and both model predictions
are single array operations.  The per-candidate loop it replaced lives in
``tests/scalar_reference/runtime_oracle_loop.py``, where the tests and the
candidate-sweep benchmark check that both pick the same argmin with the
same first-minimum tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.models.performance import CpuPerformanceModel
from repro.models.power import CpuPowerModel
from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
from repro.soc.counters import PerformanceCounters


@dataclass
class CandidateEstimate:
    """Predicted metrics of one candidate configuration."""

    configuration: SoCConfiguration
    predicted_power_w: float
    predicted_time_s: float

    @property
    def predicted_energy_j(self) -> float:
        return self.predicted_power_w * self.predicted_time_s

    @property
    def predicted_edp(self) -> float:
        return self.predicted_energy_j * self.predicted_time_s


@dataclass
class CandidateBatch:
    """Struct-of-arrays estimates for a whole candidate neighbourhood.

    Produced by :meth:`RuntimeOracle.candidate_batch`; arrays are aligned
    with ``candidate_indices`` (indices into the configuration space).
    """

    candidate_indices: np.ndarray
    predicted_power_w: np.ndarray
    predicted_time_s: np.ndarray

    def __len__(self) -> int:
        return len(self.candidate_indices)

    @property
    def predicted_energy_j(self) -> np.ndarray:
        return self.predicted_power_w * self.predicted_time_s

    @property
    def predicted_edp(self) -> np.ndarray:
        return self.predicted_energy_j * self.predicted_time_s

    def estimate_at(self, position: int,
                    space: ConfigurationSpace) -> CandidateEstimate:
        """Materialise the scalar :class:`CandidateEstimate` at one position."""
        i = int(position)
        return CandidateEstimate(
            configuration=space[int(self.candidate_indices[i])],
            predicted_power_w=float(self.predicted_power_w[i]),
            predicted_time_s=float(self.predicted_time_s[i]),
        )


class RuntimeOracle:
    """Model-driven selection of the best candidate configuration."""

    def __init__(
        self,
        space: ConfigurationSpace,
        power_model: CpuPowerModel,
        performance_model: CpuPerformanceModel,
        neighborhood_radius: int = 2,
        metric: str = "energy",
    ) -> None:
        if neighborhood_radius < 1:
            raise ValueError("neighborhood_radius must be >= 1")
        if metric not in ("energy", "edp"):
            raise ValueError("metric must be 'energy' or 'edp'")
        self.space = space
        self.power_model = power_model
        self.performance_model = performance_model
        self.neighborhood_radius = int(neighborhood_radius)
        self.metric = metric

    def candidate_batch(
        self, counters: PerformanceCounters, current: SoCConfiguration
    ) -> CandidateBatch:
        """Vectorized candidate sweep over the current neighbourhood.

        The neighbourhood is a memoised view of the space (index table plus
        pre-gathered struct-of-arrays rows), the power prediction is one
        matmul over the candidate feature matrix, and the time prediction
        is pure elementwise array arithmetic.  A ``current`` outside the
        space (say, a configuration of a differently restricted sibling
        space) is swept over the candidates
        :meth:`~repro.soc.configuration.ConfigurationSpace.neighbors`
        returns for it, gathered without memoisation.
        """
        if self.space.contains(current):
            view = self.space.neighborhood_view(
                self.space.index_of(current),
                radius=self.neighborhood_radius, include_self=True,
            )
            indices, arrays = view.indices, view.arrays
        else:
            indices = np.array(
                [self.space.index_of(candidate)
                 for candidate in self.space.neighbors(
                     current, radius=self.neighborhood_radius,
                     include_self=True)],
                dtype=np.intp,
            )
            arrays = self.space.soa_view().gather(indices)
        power = self.power_model.predict_batch(
            counters, arrays, reference_config=current
        )
        time_s = self.performance_model.predict_time_s_batch(
            counters, arrays, reference_config=current
        )
        return CandidateBatch(
            candidate_indices=indices,
            predicted_power_w=power,
            predicted_time_s=time_s,
        )

    def best_configuration(
        self, counters: PerformanceCounters, current: SoCConfiguration
    ) -> Tuple[SoCConfiguration, CandidateEstimate]:
        """The candidate with the minimum predicted objective.

        Ties go to the first candidate (in neighbourhood enumeration order)
        achieving the minimum: ``np.argmin`` returns the first minimum.
        An empty neighbourhood raises :class:`ValueError`.
        """
        batch = self.candidate_batch(counters, current)
        if self.metric == "energy":
            costs = batch.predicted_energy_j
        else:
            costs = batch.predicted_edp
        best_position = int(np.argmin(costs))
        best = batch.estimate_at(best_position, self.space)
        return best.configuration, best

    @staticmethod
    def fleet_best_indices(
        oracles: Sequence["RuntimeOracle"],
        counters_list: Sequence[PerformanceCounters],
        current_indices: np.ndarray,
    ) -> np.ndarray:
        """Fleet-wide candidate sweep: one best index per device.

        Stacks every device's neighbourhood sweep into padded
        ``(devices, max_candidates)`` tensors — candidate rows come from
        the space's memoised :meth:`~repro.soc.configuration
        .ConfigurationSpace.neighborhood_table`, candidate columns from
        its struct-of-arrays view — and computes all power/time
        predictions with :meth:`candidate_batch`'s arithmetic: the power
        prediction is one stacked matmul against the per-device RLS
        weights (per-slice BLAS — bitwise equal to each device's gemv)
        and the time prediction is pure elementwise broadcasting in
        :meth:`~repro.models.performance.CpuPerformanceModel
        .predict_time_s_batch`'s operation order.  Padding is masked to
        ``+inf`` before the segmented argmin
        (:func:`~repro.fleet.kernels.masked_first_argmin`), preserving
        the scalar first-minimum tie-break.  Returns each device's best
        configuration index in its space, bitwise identical to per-device
        :meth:`best_configuration` calls.

        Preconditions (the fleet adoption check guarantees them): every
        oracle shares the same space object, radius and metric, uses plain
        :class:`~repro.ml.rls.RecursiveLeastSquares` models
        (``fit_intercept=True``), and every model platform carries the
        same OPP values as the space's platform.  ``current_indices[d]``
        must be device ``d``'s current configuration index (so
        ``space.contains(current)`` holds for every device).  Every
        neighbourhood then includes the current configuration, so no row
        is empty; an empty row would make the segmented argmin raise
        :class:`ValueError`.
        """
        # Imported here (not at module scope) because the fleet package
        # init pulls in scenario/session modules that import this one.
        from repro.fleet.kernels import masked_first_argmin

        first = oracles[0]
        space = first.space
        table, lengths = space.neighborhood_table(
            radius=first.neighborhood_radius, include_self=True
        )
        current = np.asarray(current_indices, dtype=np.intp)
        candidates = table[current]
        valid = (np.arange(candidates.shape[1])[None, :]
                 < lengths[current][:, None])

        soa = space.soa_view()
        big = soa.cluster("big")
        little = soa.cluster("little")
        big_opp = big.opp_index[candidates]
        little_opp = little.opp_index[candidates]
        big_cores = big.cores_f[candidates]
        little_cores = little.cores_f[candidates]
        big_ref_cores = big.cores_f[current]
        little_ref_cores = little.cores_f[current]

        util_big = np.array(
            [c.big_cluster_utilization for c in counters_list])
        util_little = np.array(
            [c.little_cluster_utilization for c in counters_list])
        exec_time = np.array([c.execution_time_s for c in counters_list])
        l2_misses = np.array([c.l2_cache_misses for c in counters_list])
        external = np.array(
            [c.noncache_external_memory_requests for c in counters_list])

        # --- power features (PowerModelFeatures.build_batch, reference =
        # the device's current configuration) -------------------------- #
        features_map = first.power_model.features
        time_clamped = np.maximum(exec_time, 1e-9)
        external_rate_per_us = external / time_clamped / 1e6
        big_busy = np.minimum((util_big * big_ref_cores)[:, None], big_cores)
        little_busy = np.minimum(
            (util_little * little_ref_cores)[:, None], little_cores)
        n_devices, max_candidates = candidates.shape
        features = np.empty((n_devices, max_candidates,
                             len(features_map.FEATURE_NAMES)))
        features[:, :, 0] = features_map._v2f_over_1e9("big")[big_opp] * big_busy
        features[:, :, 1] = (
            features_map._v2f_over_1e9("little")[little_opp] * little_busy
        )
        features[:, :, 2] = big.voltage_v[candidates] * big_cores
        features[:, :, 3] = little.voltage_v[candidates] * little_cores
        features[:, :, 4] = external_rate_per_us[:, None]
        power_weights = np.stack(
            [oracle.power_model.rls.weights for oracle in oracles])
        power = np.maximum(
            0.0,
            np.matmul(features, power_weights[:, :-1, None])[:, :, 0]
            + power_weights[:, -1][:, None],
        )

        # --- time prediction (CpuPerformanceModel.predict_time_s_batch,
        # per-device scalars broadcast as (devices, 1) columns) --------- #
        perf_weights = np.stack(
            [oracle.performance_model.rls.weights for oracle in oracles])
        latency_ns = np.maximum(perf_weights[:, 0], 0.0)
        ref_big_freq = big.frequency_ghz[current]
        cand_big_freq = big.frequency_ghz[candidates]
        big_busy_core_seconds = util_big * big_ref_cores * exec_time
        big_cycles_ref = big_busy_core_seconds * ref_big_freq * 1e9
        delta_freq = cand_big_freq - ref_big_freq[:, None]
        latency_misses = latency_ns * l2_misses
        big_cycles_cand = np.maximum(
            big_cycles_ref[:, None] + latency_misses[:, None] * delta_freq,
            0.1 * big_cycles_ref[:, None],
        )
        big_busy_eff = np.maximum(util_big * big_ref_cores, 1e-3)
        effective = np.maximum(
            0.25, np.minimum(big_busy_eff[:, None], big_cores))
        big_time = big_cycles_cand / (cand_big_freq * 1e9 * effective)

        ref_little_freq = little.frequency_ghz[current]
        little_busy_core_seconds = util_little * little_ref_cores * exec_time
        little_cycles = little_busy_core_seconds * ref_little_freq * 1e9
        little_busy_cores = np.maximum(util_little * little_ref_cores, 1e-3)
        little_eff = np.minimum(little_busy_cores[:, None], little_cores)
        cand_little_freq = little.frequency_ghz[candidates]
        little_time = little_cycles[:, None] / (
            cand_little_freq * 1e9 * np.maximum(little_eff, 0.25)
        )

        time_s = np.maximum(np.maximum(big_time, little_time), 1e-9)

        cost = power * time_s
        if first.metric == "edp":
            cost = cost * time_s
        best_positions = masked_first_argmin(cost, valid)
        return candidates[np.arange(n_devices), best_positions]

    def update_models(self, counters: PerformanceCounters,
                      config: SoCConfiguration) -> Dict[str, float]:
        """Feed one observation to both online models; returns their errors."""
        power_error = self.power_model.update(counters, config)
        time_error = self.performance_model.update(counters, config)
        return {"power_error_w": power_error, "time_error_s": time_error}

    @property
    def n_model_updates(self) -> int:
        return min(self.power_model.n_updates, self.performance_model.n_updates)
