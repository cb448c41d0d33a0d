"""Snippet-level heterogeneous SoC simulator.

The simulator plays the role of the Odroid-XU3 board in the paper: given a
workload snippet and an SoC configuration it produces execution time, power,
energy and the Table-I performance counters.

Performance model (per cluster)
-------------------------------
Cycles per instruction grow with frequency for memory-bound code because the
DRAM latency is fixed in wall-clock time::

    CPI(f) = base_cpi / ilp  +  branch_mpki/1000 * branch_penalty
             +  l2_mpki/1000 * miss_penalty_ns * f[GHz]

The snippet's instructions are split between the big and LITTLE clusters by
its ``big_fraction``; each cluster executes its share with an Amdahl speedup
limited by the number of active cores and the snippet's thread count, and the
two clusters overlap in time.

Power model
-----------
Per cluster: ``P_dyn = C_eff V^2 f * n_active * utilisation`` and
``P_leak = k_leak * V * n_powered``; plus DRAM power proportional to the
external-request bandwidth and a constant base (uncore) power.

These analytic forms are the same ones the paper's online models try to learn
from counters, which makes the learning problem realistic but solvable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.soc.configuration import SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.platform import PlatformSpec
from repro.soc.snippet import Snippet
from repro.utils.rng import make_rng

#: Bytes transferred per non-cache external memory request (cache line).
BYTES_PER_EXTERNAL_REQUEST = 64.0

#: Background (OS) utilisation floor on the LITTLE cluster.
LITTLE_BACKGROUND_UTILIZATION = 0.03


@dataclass
class SnippetResult:
    """Outcome of executing one snippet at one configuration."""

    snippet: Snippet
    configuration: SoCConfiguration
    execution_time_s: float
    energy_j: float
    average_power_w: float
    counters: PerformanceCounters
    power_breakdown_w: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def _from_values(cls, values: Dict) -> "SnippetResult":
        """Hot-path constructor adopting ``values`` as the instance state.

        Bypasses the generated ``__init__`` (and any future validation
        added to it) — callers guarantee a complete, valid field dict.
        Used by the fleet lockstep kernel, where per-device dataclass
        construction dominates the step cost.
        """
        result = cls.__new__(cls)
        result.__dict__ = values
        return result

    @property
    def energy_per_instruction_nj(self) -> float:
        return self.energy_j / self.snippet.n_instructions * 1e9

    @property
    def performance_ips(self) -> float:
        """Instructions per second achieved by this execution."""
        return self.snippet.n_instructions / self.execution_time_s

    @property
    def performance_per_watt(self) -> float:
        return self.performance_ips / max(self.average_power_w, 1e-9)

    @property
    def energy_delay_product(self) -> float:
        return self.energy_j * self.execution_time_s


@dataclass
class SoCBatchResult:
    """Struct-of-arrays outcome of one snippet swept across many configurations.

    Produced by :meth:`SoCSimulator.evaluate_expected_batch`; every array has
    one element per configuration, in the order of :attr:`configurations`.
    Values are bitwise identical to what per-configuration
    :meth:`SoCSimulator.evaluate_expected` calls would produce;
    :meth:`result_at` materialises the full :class:`SnippetResult` for one
    index on demand (the sweep itself never pays the per-object cost).
    """

    snippet: Snippet
    configurations: List[SoCConfiguration]
    execution_time_s: np.ndarray
    energy_j: np.ndarray
    average_power_w: np.ndarray
    cpu_cycles: np.ndarray
    cluster_utilization: Dict[str, np.ndarray]
    power_breakdown_w: Dict[str, np.ndarray]
    instructions_retired: float
    branch_mispredictions: float
    l2_cache_misses: float
    data_memory_accesses: float
    noncache_external_memory_requests: float

    def __len__(self) -> int:
        return len(self.configurations)

    @property
    def performance_ips(self) -> np.ndarray:
        """Instructions per second achieved at each configuration."""
        return self.snippet.n_instructions / self.execution_time_s

    @property
    def energy_delay_product(self) -> np.ndarray:
        return self.energy_j * self.execution_time_s

    def _cluster_utilization_at(self, name: str, index: int) -> float:
        if name not in self.cluster_utilization:
            return 0.0
        return float(self.cluster_utilization[name][index])

    def result_at(self, index: int) -> SnippetResult:
        """Materialise the full :class:`SnippetResult` for one configuration."""
        i = int(index)
        counters = PerformanceCounters(
            instructions_retired=self.instructions_retired,
            cpu_cycles=float(self.cpu_cycles[i]),
            branch_mispredictions=self.branch_mispredictions,
            l2_cache_misses=self.l2_cache_misses,
            data_memory_accesses=self.data_memory_accesses,
            noncache_external_memory_requests=self.noncache_external_memory_requests,
            little_cluster_utilization=self._cluster_utilization_at("little", i),
            big_cluster_utilization=self._cluster_utilization_at("big", i),
            total_chip_power_w=float(self.average_power_w[i]),
            execution_time_s=float(self.execution_time_s[i]),
        )
        return SnippetResult(
            snippet=self.snippet,
            configuration=self.configurations[i],
            execution_time_s=float(self.execution_time_s[i]),
            energy_j=float(self.energy_j[i]),
            average_power_w=float(self.average_power_w[i]),
            counters=counters,
            power_breakdown_w={k: float(v[i]) for k, v in self.power_breakdown_w.items()},
        )

    def __getitem__(self, index: int) -> SnippetResult:
        return self.result_at(index)


class SoCSimulator:
    """Counter-driven simulator of a heterogeneous big.LITTLE SoC."""

    def __init__(
        self,
        platform: PlatformSpec,
        noise_scale: float = 0.01,
        seed: Optional[int] = None,
    ) -> None:
        if noise_scale < 0:
            raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
        self.platform = platform
        self.noise_scale = float(noise_scale)
        self.rng = make_rng(seed)
        # Snippet-independent per-OPP tables used by the vectorized sweep,
        # built lazily per cluster (the platform is fixed at construction).
        self._sweep_tables: Dict[str, tuple] = {}

    # ------------------------------------------------------------------ #
    # Cluster-level helpers
    # ------------------------------------------------------------------ #
    def _cluster_cpi(self, cluster_name: str, snippet: Snippet, opp_index: int) -> float:
        spec = self.platform.cluster(cluster_name)
        opp = spec.opps[opp_index]
        chars = snippet.characteristics
        frequency_ghz = opp.frequency_hz / 1e9
        cpi = spec.base_cpi / chars.ilp_factor
        cpi += chars.branch_misprediction_mpki / 1000.0 * spec.branch_penalty_cycles
        cpi += chars.memory_intensity / 1000.0 * spec.l2_miss_penalty_ns * frequency_ghz
        return cpi

    def _cluster_time_and_work(
        self, cluster_name: str, snippet: Snippet, config: SoCConfiguration
    ) -> Dict[str, float]:
        """Return elapsed time, busy core-seconds and cycles for one cluster."""
        spec = self.platform.cluster(cluster_name)
        chars = snippet.characteristics
        opp_index = config.opp_index(cluster_name)
        active_cores = config.cores(cluster_name)
        opp = spec.opps[opp_index]
        if cluster_name == "big":
            instructions = snippet.n_instructions * chars.big_fraction
        else:
            instructions = snippet.n_instructions * (1.0 - chars.big_fraction)
        if instructions <= 0.0:
            return {
                "elapsed_s": 0.0,
                "busy_core_s": 0.0,
                "cycles": 0.0,
                "instructions": 0.0,
            }
        cpi = self._cluster_cpi(cluster_name, snippet, opp_index)
        cycles = instructions * cpi
        serial_time = cycles / opp.frequency_hz
        usable_cores = max(1, min(active_cores, chars.thread_count))
        amdahl_speedup = 1.0 / (
            (1.0 - chars.parallel_fraction) + chars.parallel_fraction / usable_cores
        )
        elapsed = serial_time / amdahl_speedup
        busy_core_seconds = serial_time  # total work is conserved across cores
        return {
            "elapsed_s": elapsed,
            "busy_core_s": busy_core_seconds,
            "cycles": cycles,
            "instructions": instructions,
        }

    def _cluster_sweep_tables(self, cluster_name: str) -> tuple:
        """Cached per-OPP arrays for one cluster (vectorized-sweep inputs).

        Returns ``(frequency_hz, frequency_ghz, dynamic_coeff, static_coeff)``
        where the power coefficients are the snippet-independent prefixes of
        :meth:`ClusterSpec.dynamic_power_w` / ``static_power_w``, computed
        with the same scalar arithmetic (and therefore the same rounding).
        """
        tables = self._sweep_tables.get(cluster_name)
        if tables is None:
            spec = self.platform.cluster(cluster_name)
            frequency_hz = np.array([opp.frequency_hz for opp in spec.opps])
            frequency_ghz = frequency_hz / 1e9
            dynamic_coeff = np.array([
                spec.capacitance_eff_f * opp.voltage_v**2 * opp.frequency_hz
                for opp in spec.opps
            ])
            static_coeff = np.array([
                spec.leakage_w_per_v * opp.voltage_v for opp in spec.opps
            ])
            tables = (frequency_hz, frequency_ghz, dynamic_coeff, static_coeff)
            self._sweep_tables[cluster_name] = tables
        return tables

    def _batch_utilization_and_power(
        self,
        opp_idx: Dict[str, np.ndarray],
        cores: Dict[str, np.ndarray],
        busy: Dict[str, np.ndarray],
        total_time: np.ndarray,
        external_requests,
        n: int,
    ):
        """Array-based utilization + power model shared by the batch kernels.

        Consumes per-cluster activity (busy core-seconds, OPP indices,
        active cores) plus the total elapsed time and external-request
        count, and returns ``(utilizations, power_breakdown, total_power)``
        with exactly the scalar :meth:`run_snippet` arithmetic per element:
        the per-OPP coefficients come from :meth:`_cluster_sweep_tables`
        and every operation mirrors the scalar order, so the results are
        bitwise identical whether the arrays span one snippet across many
        configurations (:meth:`evaluate_expected_batch`) or many
        (snippet, configuration) pairs across a device fleet
        (:func:`repro.fleet.kernels.lockstep_execute`).
        ``external_requests`` may be a scalar (one snippet) or a
        per-element array (one per pair).
        """
        cluster_names = self.platform.cluster_names
        utilizations: Dict[str, np.ndarray] = {}
        power_breakdown: Dict[str, np.ndarray] = {}
        total_power = np.full(n, self.platform.base_power_w)
        power_breakdown["base"] = np.full(n, self.platform.base_power_w)
        for name in cluster_names:
            spec = self.platform.cluster(name)
            active = np.minimum(np.maximum(cores[name], 0), spec.n_cores).astype(float)
            utilization = busy[name] / (active * total_time)
            if name == "little":
                utilization = np.minimum(
                    1.0, utilization + LITTLE_BACKGROUND_UTILIZATION
                )
            utilization = np.minimum(1.0, utilization)
            utilizations[name] = utilization
            _, _, dynamic_coeff, static_coeff = self._cluster_sweep_tables(name)
            dynamic = (
                dynamic_coeff[opp_idx[name]] * active
                * np.minimum(np.maximum(utilization, 0.0), 1.0)
            )
            static = static_coeff[opp_idx[name]] * active
            power_breakdown[f"{name}_dynamic"] = dynamic
            power_breakdown[f"{name}_static"] = static
            total_power = total_power + (dynamic + static)

        external_bytes = external_requests * BYTES_PER_EXTERNAL_REQUEST
        memory_traffic_gbps = external_bytes / total_time / 1e9
        memory_power = self.platform.memory_power_w_per_gbps * memory_traffic_gbps
        power_breakdown["memory"] = memory_power
        total_power = total_power + memory_power
        return utilizations, power_breakdown, total_power

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run_snippet(
        self,
        snippet: Snippet,
        config: SoCConfiguration,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = False,
    ) -> SnippetResult:
        """Execute ``snippet`` at ``config`` and return the full result.

        When ``deterministic`` is True (or ``noise_scale`` is zero) the result
        contains the expected values with no measurement noise; the Oracle
        construction uses this mode so that the ground-truth best
        configuration is well defined.
        """
        chars = snippet.characteristics
        per_cluster = {
            name: self._cluster_time_and_work(name, snippet, config)
            for name in self.platform.cluster_names
        }
        total_time = max(info["elapsed_s"] for info in per_cluster.values())
        if total_time <= 0.0:
            raise ValueError("snippet produced zero execution time")

        utilizations: Dict[str, float] = {}
        power_breakdown: Dict[str, float] = {}
        total_power = self.platform.base_power_w
        power_breakdown["base"] = self.platform.base_power_w
        for name, info in per_cluster.items():
            spec = self.platform.cluster(name)
            opp_index = config.opp_index(name)
            active = config.cores(name)
            utilization = info["busy_core_s"] / (active * total_time)
            if name == "little":
                utilization = min(1.0, utilization + LITTLE_BACKGROUND_UTILIZATION)
            utilization = min(1.0, utilization)
            utilizations[name] = utilization
            dynamic = spec.dynamic_power_w(opp_index, active, utilization)
            static = spec.static_power_w(opp_index, active)
            power_breakdown[f"{name}_dynamic"] = dynamic
            power_breakdown[f"{name}_static"] = static
            total_power += dynamic + static

        l2_misses = snippet.n_instructions * chars.memory_intensity / 1000.0
        external_requests = l2_misses * chars.external_request_rate
        memory_traffic_gbps = (
            external_requests * BYTES_PER_EXTERNAL_REQUEST / total_time / 1e9
        )
        memory_power = self.platform.memory_power_w_per_gbps * memory_traffic_gbps
        power_breakdown["memory"] = memory_power
        total_power += memory_power

        noise_rng = rng if rng is not None else self.rng
        if deterministic or self.noise_scale == 0.0:
            time_noise = 1.0
            power_noise = 1.0
        else:
            time_noise = float(
                np.exp(noise_rng.normal(0.0, self.noise_scale))
            )
            power_noise = float(
                np.exp(noise_rng.normal(0.0, self.noise_scale))
            )
        measured_time = total_time * time_noise
        measured_power = total_power * power_noise
        energy = measured_power * measured_time

        total_cycles = sum(info["cycles"] for info in per_cluster.values())
        counters = PerformanceCounters(
            instructions_retired=snippet.n_instructions,
            cpu_cycles=total_cycles,
            branch_mispredictions=(
                snippet.n_instructions * chars.branch_misprediction_mpki / 1000.0
            ),
            l2_cache_misses=l2_misses,
            data_memory_accesses=snippet.n_instructions * chars.memory_access_rate,
            noncache_external_memory_requests=external_requests,
            little_cluster_utilization=utilizations.get("little", 0.0),
            big_cluster_utilization=utilizations.get("big", 0.0),
            total_chip_power_w=measured_power,
            execution_time_s=measured_time,
        )
        return SnippetResult(
            snippet=snippet,
            configuration=config,
            execution_time_s=measured_time,
            energy_j=energy,
            average_power_w=measured_power,
            counters=counters,
            power_breakdown_w=power_breakdown,
        )

    def evaluate_expected(self, snippet: Snippet, config: SoCConfiguration) -> SnippetResult:
        """Noise-free evaluation used for Oracle construction and analysis."""
        return self.run_snippet(snippet, config, deterministic=True)

    def apply_noise(self, expected: SnippetResult,
                    rng: Optional[np.random.Generator] = None) -> SnippetResult:
        """Re-noise a noise-free result exactly as :meth:`run_snippet` would.

        Given the expected (deterministic) result of a snippet/configuration
        pair — e.g. a cached Oracle entry's ``best_result`` — this draws the
        same two log-normal factors in the same order as :meth:`run_snippet`
        and applies them with the same arithmetic, so the returned result
        (and the generator stream consumed) is bitwise identical to a full
        re-simulation, without re-running the per-cluster performance model.
        """
        noise_rng = rng if rng is not None else self.rng
        if self.noise_scale == 0.0:
            time_noise = 1.0
            power_noise = 1.0
        else:
            time_noise = float(
                np.exp(noise_rng.normal(0.0, self.noise_scale))
            )
            power_noise = float(
                np.exp(noise_rng.normal(0.0, self.noise_scale))
            )
        measured_time = expected.execution_time_s * time_noise
        measured_power = expected.average_power_w * power_noise
        energy = measured_power * measured_time
        base = expected.counters
        counters = PerformanceCounters(
            instructions_retired=base.instructions_retired,
            cpu_cycles=base.cpu_cycles,
            branch_mispredictions=base.branch_mispredictions,
            l2_cache_misses=base.l2_cache_misses,
            data_memory_accesses=base.data_memory_accesses,
            noncache_external_memory_requests=base.noncache_external_memory_requests,
            little_cluster_utilization=base.little_cluster_utilization,
            big_cluster_utilization=base.big_cluster_utilization,
            total_chip_power_w=measured_power,
            execution_time_s=measured_time,
        )
        return SnippetResult(
            snippet=expected.snippet,
            configuration=expected.configuration,
            execution_time_s=measured_time,
            energy_j=energy,
            average_power_w=measured_power,
            counters=counters,
            power_breakdown_w=dict(expected.power_breakdown_w),
        )

    def evaluate_expected_batch(
        self, snippet: Snippet, configurations: Iterable[SoCConfiguration]
    ) -> SoCBatchResult:
        """Noise-free evaluation of one snippet across many configurations.

        This is the vectorized twin of :meth:`evaluate_expected`: the whole
        configuration sweep is computed with NumPy array operations instead
        of one :meth:`run_snippet` call per configuration, which is what
        makes exhaustive Oracle construction fast.

        Bitwise equivalence with the scalar path is maintained by performing
        every quantity that depends only on the OPP index (CPI, serial time,
        per-OPP power coefficients) with the *same* Python-scalar arithmetic
        as :meth:`run_snippet`, and by ordering the remaining array
        operations exactly like their scalar counterparts.
        """
        configs = list(configurations)
        if not configs:
            raise ValueError("evaluate_expected_batch needs at least one configuration")
        n = len(configs)
        chars = snippet.characteristics
        cluster_names = self.platform.cluster_names

        opp_idx: Dict[str, np.ndarray] = {}
        cores: Dict[str, np.ndarray] = {}
        index_arrays = getattr(configurations, "batch_index_arrays", None)
        if index_arrays is not None:
            # A ConfigurationSpace caches its index arrays, so repeated
            # sweeps over the same space skip re-reading every config object.
            for name, (opp, active) in index_arrays().items():
                opp_idx[name] = opp
                cores[name] = active
        else:
            for name in cluster_names:
                opp_idx[name] = np.fromiter(
                    (c.opp_index(name) for c in configs), dtype=np.intp, count=n
                )
                cores[name] = np.fromiter(
                    (c.cores(name) for c in configs), dtype=np.intp, count=n
                )

        elapsed: Dict[str, np.ndarray] = {}
        busy: Dict[str, np.ndarray] = {}
        cycles: Dict[str, np.ndarray] = {}
        for name in cluster_names:
            spec = self.platform.cluster(name)
            frequency_hz, frequency_ghz, _, _ = self._cluster_sweep_tables(name)
            if name == "big":
                instructions = snippet.n_instructions * chars.big_fraction
            else:
                instructions = snippet.n_instructions * (1.0 - chars.big_fraction)
            if instructions <= 0.0:
                elapsed[name] = np.zeros(n)
                busy[name] = np.zeros(n)
                cycles[name] = np.zeros(n)
                continue
            # CPI over all OPPs in one shot; term grouping mirrors
            # _cluster_cpi exactly so the floats come out bitwise equal.
            cpi_base = spec.base_cpi / chars.ilp_factor
            cpi_base = cpi_base + (
                chars.branch_misprediction_mpki / 1000.0 * spec.branch_penalty_cycles
            )
            memory_term = chars.memory_intensity / 1000.0 * spec.l2_miss_penalty_ns
            cpi_by_opp = cpi_base + memory_term * frequency_ghz
            cycles_by_opp = instructions * cpi_by_opp
            serial_by_opp = cycles_by_opp / frequency_hz
            amdahl_by_cores = np.empty(spec.n_cores + 1)
            for c in range(spec.n_cores + 1):
                usable_cores = max(1, min(c, chars.thread_count))
                amdahl_by_cores[c] = 1.0 / (
                    (1.0 - chars.parallel_fraction)
                    + chars.parallel_fraction / usable_cores
                )
            serial_time = serial_by_opp[opp_idx[name]]
            elapsed[name] = serial_time / amdahl_by_cores[cores[name]]
            busy[name] = serial_time
            cycles[name] = cycles_by_opp[opp_idx[name]]

        total_time = elapsed[cluster_names[0]]
        for name in cluster_names[1:]:
            total_time = np.maximum(total_time, elapsed[name])
        if np.any(total_time <= 0.0):
            raise ValueError("snippet produced zero execution time")

        l2_misses = snippet.n_instructions * chars.memory_intensity / 1000.0
        external_requests = l2_misses * chars.external_request_rate
        utilizations, power_breakdown, total_power = (
            self._batch_utilization_and_power(
                opp_idx, cores, busy, total_time, external_requests, n
            )
        )

        energy = total_power * total_time
        total_cycles = np.zeros(n)
        for name in cluster_names:
            total_cycles = total_cycles + cycles[name]

        return SoCBatchResult(
            snippet=snippet,
            configurations=configs,
            execution_time_s=total_time,
            energy_j=energy,
            average_power_w=total_power,
            cpu_cycles=total_cycles,
            cluster_utilization=utilizations,
            power_breakdown_w=power_breakdown,
            instructions_retired=snippet.n_instructions,
            branch_mispredictions=(
                snippet.n_instructions * chars.branch_misprediction_mpki / 1000.0
            ),
            l2_cache_misses=l2_misses,
            data_memory_accesses=snippet.n_instructions * chars.memory_access_rate,
            noncache_external_memory_requests=external_requests,
        )
