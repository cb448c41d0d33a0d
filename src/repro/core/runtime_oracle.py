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
energy.

The candidate sweep is vectorized end to end: the neighbourhood comes from
the configuration space's memoised index tables and both model predictions
are array operations (:func:`~repro.models.power.predict_power_w` over
:func:`~repro.models.power.power_features`, and
:func:`~repro.models.performance.predict_time_s`).  Those functions
broadcast over their inputs, so one device's sweep
(:meth:`RuntimeOracle.candidate_batch`) and a fleet's
(:meth:`RuntimeOracle.fleet_best_indices`) run the same arithmetic.  The
per-candidate loop it replaced lives in
``tests/scalar_reference/runtime_oracle_loop.py``, where the tests and the
candidate-sweep benchmark check that both pick the same argmin with the
same first-minimum tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.models.performance import CpuPerformanceModel, predict_time_s
from repro.models.power import CpuPowerModel, power_features, predict_power_w
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
    ) -> None:
        if neighborhood_radius < 1:
            raise ValueError("neighborhood_radius must be >= 1")
        self.space = space
        self.power_model = power_model
        self.performance_model = performance_model
        self.neighborhood_radius = int(neighborhood_radius)

    def candidate_batch(
        self, counters: PerformanceCounters, current: SoCConfiguration
    ) -> CandidateBatch:
        """Vectorized candidate sweep over the current neighbourhood.

        The neighbourhood is a memoised view of the space (index table plus
        pre-gathered struct-of-arrays rows), and the predictions take this
        device's counters and current configuration as Python scalars.  A
        ``current`` outside the space raises :class:`KeyError`.
        """
        view = self.space.neighborhood_view(
            self.space.index_of(current), radius=self.neighborhood_radius
        )
        indices, arrays = view.indices, view.arrays
        big = arrays.cluster("big")
        little = arrays.cluster("little")
        big_reference_cores = current.cores("big")
        little_reference_cores = current.cores("little")
        power = predict_power_w(
            power_features(
                self.power_model.features,
                big_utilization=counters.big_cluster_utilization,
                little_utilization=counters.little_cluster_utilization,
                execution_time_s=counters.execution_time_s,
                external_requests=counters.noncache_external_memory_requests,
                big_reference_cores=big_reference_cores,
                little_reference_cores=little_reference_cores,
                big_opp_index=big.opp_index,
                little_opp_index=little.opp_index,
                big_cores=big.cores_f,
                little_cores=little.cores_f,
                big_voltage_v=big.voltage_v,
                little_voltage_v=little.voltage_v,
            ),
            self.power_model.rls.weights,
        )
        performance = self.performance_model
        time_s = predict_time_s(
            latency_ns=performance.latency_ns(),
            big_utilization=counters.big_cluster_utilization,
            little_utilization=counters.little_cluster_utilization,
            execution_time_s=counters.execution_time_s,
            l2_misses=counters.l2_cache_misses,
            big_reference_cores=big_reference_cores,
            little_reference_cores=little_reference_cores,
            big_reference_ghz=performance.features.frequency_ghz(current, "big"),
            little_reference_ghz=performance.features.frequency_ghz(
                current, "little"),
            big_cores=big.cores_f,
            little_cores=little.cores_f,
            big_ghz=big.frequency_ghz,
            little_ghz=little.frequency_ghz,
        )
        return CandidateBatch(
            candidate_indices=indices,
            predicted_power_w=power,
            predicted_time_s=time_s,
        )

    def best_configuration(
        self, counters: PerformanceCounters, current: SoCConfiguration
    ) -> Tuple[SoCConfiguration, CandidateEstimate]:
        """The candidate with the minimum predicted energy.

        Ties go to the first candidate (in neighbourhood enumeration order)
        achieving the minimum: ``np.argmin`` returns the first minimum.
        """
        batch = self.candidate_batch(counters, current)
        best_position = int(np.argmin(batch.predicted_energy_j))
        best = batch.estimate_at(best_position, self.space)
        return best.configuration, best

    @staticmethod
    def fleet_best_indices(
        oracles: Sequence["RuntimeOracle"],
        counters_list: Sequence[PerformanceCounters],
        current_indices: np.ndarray,
    ) -> np.ndarray:
        """Fleet-wide candidate sweep: one best index per device.

        Pads every device's neighbourhood into ``(devices,
        max_candidates)`` candidate rows from the space's memoised
        :meth:`~repro.soc.configuration.ConfigurationSpace
        .neighborhood_table`, gathers the candidate columns the
        predictions read from its struct-of-arrays view, and runs
        :meth:`candidate_batch`'s predictions once with the per-device
        inputs as ``(devices, 1)`` columns.  Padding is masked to ``+inf``
        before the segmented argmin
        (:func:`~repro.fleet.kernels.masked_first_argmin`), preserving the
        scalar first-minimum tie-break.  Returns each device's best
        configuration index in its space, bitwise identical to per-device
        :meth:`best_configuration` calls.

        Preconditions (the online-IL decide key guarantees them): every
        oracle has the same space content and radius, uses plain
        :class:`~repro.ml.rls.RecursiveLeastSquares` models, and every
        model reads its space's platform object.  ``current_indices[d]``
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
            radius=first.neighborhood_radius
        )
        current = np.asarray(current_indices, dtype=np.intp)
        candidates = table[current]
        valid = (np.arange(candidates.shape[1])[None, :]
                 < lengths[current][:, None])
        reference = current[:, None]
        soa = space.soa_view()
        big = soa.cluster("big")
        little = soa.cluster("little")
        big_utilization = np.array(
            [c.big_cluster_utilization for c in counters_list])[:, None]
        little_utilization = np.array(
            [c.little_cluster_utilization for c in counters_list])[:, None]
        execution_time_s = np.array(
            [c.execution_time_s for c in counters_list])[:, None]
        big_reference_cores = big.cores_f[reference]
        little_reference_cores = little.cores_f[reference]
        big_cores = big.cores_f[candidates]
        little_cores = little.cores_f[candidates]

        power = predict_power_w(
            power_features(
                first.power_model.features,
                big_utilization=big_utilization,
                little_utilization=little_utilization,
                execution_time_s=execution_time_s,
                external_requests=np.array(
                    [c.noncache_external_memory_requests
                     for c in counters_list])[:, None],
                big_reference_cores=big_reference_cores,
                little_reference_cores=little_reference_cores,
                big_opp_index=big.opp_index[candidates],
                little_opp_index=little.opp_index[candidates],
                big_cores=big_cores,
                little_cores=little_cores,
                big_voltage_v=big.voltage_v[candidates],
                little_voltage_v=little.voltage_v[candidates],
            ),
            np.stack([oracle.power_model.rls.weights for oracle in oracles]),
        )
        latency_ns = np.maximum(
            np.stack([oracle.performance_model.rls.weights
                      for oracle in oracles])[:, :1],
            0.0,
        )
        time_s = predict_time_s(
            latency_ns=latency_ns,
            big_utilization=big_utilization,
            little_utilization=little_utilization,
            execution_time_s=execution_time_s,
            l2_misses=np.array(
                [c.l2_cache_misses for c in counters_list])[:, None],
            big_reference_cores=big_reference_cores,
            little_reference_cores=little_reference_cores,
            big_reference_ghz=big.frequency_ghz[reference],
            little_reference_ghz=little.frequency_ghz[reference],
            big_cores=big_cores,
            little_cores=little_cores,
            big_ghz=big.frequency_ghz[candidates],
            little_ghz=little.frequency_ghz[candidates],
        )

        best_positions = masked_first_argmin(power * time_s, valid)
        return candidates[np.arange(len(current)), best_positions]

    def update_models(self, counters: PerformanceCounters,
                      config: SoCConfiguration) -> Dict[str, float]:
        """Feed one observation to both online models; returns their errors."""
        power_error = self.power_model.update(counters, config)
        time_error = self.performance_model.update(counters, config)
        return {"power_error_w": power_error, "time_error_s": time_error}

    @property
    def n_model_updates(self) -> int:
        return min(self.power_model.n_updates, self.performance_model.n_updates)
