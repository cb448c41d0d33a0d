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

:meth:`SoCSimulator.expected_arrays` is the one implementation of the model:
it evaluates (snippet, configuration) pairs as arrays, and every execution is
a lane of it.  The Oracle sweep
(:meth:`SoCSimulator.evaluate_expected_batch`) broadcasts snippet rows
against a space's configuration knobs; :meth:`SoCSimulator.execute_lanes`
runs one pair per lane and applies each lane's measurement noise, for a
fleet step, a batch of offline executions, or the one lane of
:meth:`SoCSimulator.run_snippet`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.soc.configuration import ConfigurationSpace, SoCConfiguration
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

    @classmethod
    def _from_values(cls, values: Dict) -> "SnippetResult":
        """Hot-path constructor adopting ``values`` as the instance state.

        Bypasses the generated ``__init__`` (and any future validation
        added to it) — callers guarantee a complete, valid field dict.
        Used by :meth:`SoCBatchResult.lane_results`, where per-lane
        dataclass construction dominates a fleet step's cost.
        """
        result = cls.__new__(cls)
        result.__dict__ = values
        return result

    @property
    def energy_per_instruction_nj(self) -> float:
        return self.energy_j / self.snippet.n_instructions * 1e9


#: Column layout of :func:`characteristics_matrix` rows.
CHARACTERISTIC_COLUMNS = (
    "n_instructions",
    "memory_intensity",
    "memory_access_rate",
    "external_request_rate",
    "branch_misprediction_mpki",
    "ilp_factor",
    "parallel_fraction",
    "thread_count",
    "big_fraction",
)


def characteristics_matrix(snippets: Sequence[Snippet]) -> np.ndarray:
    """One float row of :data:`CHARACTERISTIC_COLUMNS` per snippet.

    :meth:`SoCSimulator.expected_arrays` reads snippets only through such
    rows, so a sweep or a fleet step touches no snippet object per element.
    """
    rows = []
    for snippet in snippets:
        chars = snippet.characteristics
        rows.append((
            snippet.n_instructions,
            chars.memory_intensity,
            chars.memory_access_rate,
            chars.external_request_rate,
            chars.branch_misprediction_mpki,
            chars.ilp_factor,
            chars.parallel_fraction,
            chars.thread_count,
            chars.big_fraction,
        ))
    return np.array(rows, dtype=float).reshape(len(rows),
                                               len(CHARACTERISTIC_COLUMNS))


@dataclass
class SoCBatchResult:
    """Struct-of-arrays outcome of :meth:`SoCSimulator.expected_arrays`.

    A sweep (:meth:`SoCSimulator.evaluate_expected_batch`) has one row per
    snippet and one column per configuration: the per-pair arrays are
    ``(snippets, configurations)``, the per-snippet counters
    ``(snippets, 1)`` and the static power terms ``(configurations,)``, all
    broadcasting to ``(snippets, configurations)``.  A lane batch
    (:meth:`SoCSimulator.execute_lanes`) holds one (snippet,
    configuration) pair per lane, and its arrays are ``(lanes,)``.
    :meth:`lane_results` materialises the :class:`SnippetResult` objects
    of a lane batch.
    """

    snippets: List[Snippet]
    configurations: List[SoCConfiguration]
    execution_time_s: np.ndarray
    energy_j: np.ndarray
    average_power_w: np.ndarray
    cpu_cycles: np.ndarray
    cluster_utilization: Dict[str, np.ndarray]
    branch_mispredictions: np.ndarray
    l2_cache_misses: np.ndarray
    data_memory_accesses: np.ndarray
    noncache_external_memory_requests: np.ndarray

    def lane_results(self) -> List[SnippetResult]:
        """The :class:`SnippetResult` of every lane of a lane batch.

        Each array is converted once (``tolist`` is far cheaper than one
        ``float()`` cast per lane), and the dataclasses are built through
        their ``_from_values`` constructors: the values of an in-range
        configuration pass the dataclass validation, and skipping
        ``__init__`` is measurably cheaper on the per-device hot path of a
        fleet step.
        """
        n = len(self.snippets)
        zero = [0.0] * n
        utilization = {name: values.tolist() for name, values
                       in self.cluster_utilization.items()}
        counters_from_values = PerformanceCounters._from_values
        result_from_values = SnippetResult._from_values
        results: List[SnippetResult] = []
        append = results.append
        for (snippet, config, time_s, power_w, energy_j, cycles, branch,
             l2, dma, external, u_little, u_big) in zip(
                self.snippets, self.configurations,
                self.execution_time_s.tolist(),
                self.average_power_w.tolist(), self.energy_j.tolist(),
                self.cpu_cycles.tolist(),
                self.branch_mispredictions.tolist(),
                self.l2_cache_misses.tolist(),
                self.data_memory_accesses.tolist(),
                self.noncache_external_memory_requests.tolist(),
                utilization.get("little", zero), utilization.get("big", zero)):
            counters = counters_from_values({
                "instructions_retired": snippet.n_instructions,
                "cpu_cycles": cycles,
                "branch_mispredictions": branch,
                "l2_cache_misses": l2,
                "data_memory_accesses": dma,
                "noncache_external_memory_requests": external,
                "little_cluster_utilization": u_little,
                "big_cluster_utilization": u_big,
                "total_chip_power_w": power_w,
                "execution_time_s": time_s,
            })
            append(result_from_values({
                "snippet": snippet,
                "configuration": config,
                "execution_time_s": time_s,
                "energy_j": energy_j,
                "average_power_w": power_w,
                "counters": counters,
            }))
        return results


class SoCSimulator:
    """Counter-driven simulator of a heterogeneous big.LITTLE SoC."""

    def __init__(
        self,
        platform: PlatformSpec,
        noise_scale: float = 0.01,
        seed: Optional[int] = None,
    ) -> None:
        if not 0.0 <= noise_scale < np.inf:
            raise ValueError(
                f"noise_scale must be finite and non-negative, got {noise_scale}")
        self.platform = platform
        self.noise_scale = float(noise_scale)
        self.rng = make_rng(seed)
        # Snippet-independent per-OPP tables of the array model, built
        # lazily per cluster (the platform is fixed at construction).
        self._sweep_tables: Dict[str, tuple] = {}

    def _cluster_sweep_tables(self, cluster_name: str) -> tuple:
        """Cached per-OPP arrays for one cluster (:meth:`expected_arrays` inputs).

        Returns ``(frequency_hz, frequency_ghz, dynamic_coeff, static_coeff)``
        where ``dynamic_coeff`` is ``C_eff V^2 f`` (a core's dynamic power
        at full utilisation) and ``static_coeff`` is ``k_leak V`` (a
        powered core's leakage), each computed per OPP in Python floats.
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

    def expected_arrays(
        self,
        snippets: List[Snippet],
        configurations: List[SoCConfiguration],
        columns: np.ndarray,
        opp_index: Dict[str, np.ndarray],
        cores: Dict[str, np.ndarray],
    ) -> SoCBatchResult:
        """Noise-free execution over arrays: the SoC model's one form.

        ``columns`` is a transposed :func:`characteristics_matrix`: one
        array per :data:`CHARACTERISTIC_COLUMNS` entry along its first
        axis.  ``opp_index`` and ``cores`` hold each cluster's integer knob
        arrays.  Every snippet column broadcasts against the knobs, so
        ``(k, S, 1)`` columns against ``(C,)`` knobs sweep ``S`` snippets
        over ``C`` configurations (:meth:`evaluate_expected_batch`), and
        ``(k, S)`` columns against ``(S,)`` knobs evaluate ``S`` (snippet,
        configuration) lanes (:meth:`execute_lanes`).  ``snippets`` and
        ``configurations`` are the snippet and configuration objects.

        Each operation is that of the per-cluster scalar model in
        ``tests/scalar_reference/soc_scalar.py``, in its order: IEEE-754
        elementwise arithmetic rounds exactly like the same Python-float
        arithmetic, so every element is bitwise equal to the reference's
        value for an in-range configuration.  A zero-instruction cluster
        flows through as exact zeros, which is what the reference's early
        return produces.  The per-OPP frequency and power-coefficient
        tables come from :meth:`_cluster_sweep_tables`.
        """
        (n_instr, memory_intensity, memory_access_rate, external_request_rate,
         branch_mpki, ilp_factor, parallel_fraction, thread_count,
         big_fraction) = columns
        platform = self.platform
        cluster_names = platform.cluster_names

        elapsed: Dict[str, np.ndarray] = {}
        busy: Dict[str, np.ndarray] = {}
        cycles: Dict[str, np.ndarray] = {}
        for name in cluster_names:
            spec = platform.cluster(name)
            frequency_hz, frequency_ghz, _, _ = self._cluster_sweep_tables(name)
            opp = opp_index[name]
            if name == "big":
                instructions = n_instr * big_fraction
            else:
                instructions = n_instr * (1.0 - big_fraction)
            # Term grouping mirrors the reference's per-cluster CPI.
            cpi = spec.base_cpi / ilp_factor
            cpi = cpi + branch_mpki / 1000.0 * spec.branch_penalty_cycles
            cpi = cpi + (memory_intensity / 1000.0 * spec.l2_miss_penalty_ns
                         * frequency_ghz[opp])
            cycles[name] = instructions * cpi
            serial_time = cycles[name] / frequency_hz[opp]
            usable_cores = np.maximum(
                1.0, np.minimum(cores[name].astype(float), thread_count)
            )
            amdahl_speedup = 1.0 / (
                (1.0 - parallel_fraction) + parallel_fraction / usable_cores
            )
            elapsed[name] = serial_time / amdahl_speedup
            busy[name] = serial_time

        total_time = elapsed[cluster_names[0]]
        for name in cluster_names[1:]:
            total_time = np.maximum(total_time, elapsed[name])
        if np.any(total_time <= 0.0):
            raise ValueError("snippet produced zero execution time")

        utilizations: Dict[str, np.ndarray] = {}
        total_power = np.full(total_time.shape, platform.base_power_w)
        for name in cluster_names:
            spec = platform.cluster(name)
            _, _, dynamic_coeff, static_coeff = self._cluster_sweep_tables(name)
            active = np.minimum(np.maximum(cores[name], 0), spec.n_cores).astype(float)
            utilization = busy[name] / (active * total_time)
            if name == "little":
                utilization = np.minimum(
                    1.0, utilization + LITTLE_BACKGROUND_UTILIZATION
                )
            utilization = np.minimum(1.0, utilization)
            utilizations[name] = utilization
            dynamic = (
                dynamic_coeff[opp_index[name]] * active
                * np.minimum(np.maximum(utilization, 0.0), 1.0)
            )
            static = static_coeff[opp_index[name]] * active
            total_power = total_power + (dynamic + static)

        l2_misses = n_instr * memory_intensity / 1000.0
        external_requests = l2_misses * external_request_rate
        memory_traffic_gbps = (
            external_requests * BYTES_PER_EXTERNAL_REQUEST / total_time / 1e9
        )
        memory_power = platform.memory_power_w_per_gbps * memory_traffic_gbps
        total_power = total_power + memory_power

        return SoCBatchResult(
            snippets=snippets,
            configurations=configurations,
            execution_time_s=total_time,
            energy_j=total_power * total_time,
            average_power_w=total_power,
            cpu_cycles=sum(cycles.values()),
            cluster_utilization=utilizations,
            branch_mispredictions=n_instr * branch_mpki / 1000.0,
            l2_cache_misses=l2_misses,
            data_memory_accesses=n_instr * memory_access_rate,
            noncache_external_memory_requests=external_requests,
        )

    def execute_lanes(
        self,
        snippets: Sequence[Snippet],
        configurations: Sequence[SoCConfiguration],
        char_rows: np.ndarray,
        opp_index: Dict[str, np.ndarray],
        cores: Dict[str, np.ndarray],
        noise: np.ndarray,
    ) -> List[SnippetResult]:
        """Execute one (snippet, configuration) pair per lane, with noise.

        ``char_rows`` holds each lane's :func:`characteristics_matrix`
        row, ``opp_index`` and ``cores`` each cluster's ``(lanes,)``
        integer knob arrays, and ``snippets`` and ``configurations`` the
        lanes' objects (result metadata).  ``noise`` is ``(lanes, 2)``,
        one :meth:`draw_noise` row of (time, power) factors per lane.
        This is where every execution applies its measurement noise: a
        fleet step, a lone :meth:`run_snippet` and the offline
        executions at Oracle configurations all come here.
        """
        lanes = self.expected_arrays(
            snippets, configurations, char_rows.T, opp_index, cores
        )
        lanes.execution_time_s = lanes.execution_time_s * noise[:, 0]
        lanes.average_power_w = lanes.average_power_w * noise[:, 1]
        lanes.energy_j = lanes.average_power_w * lanes.execution_time_s
        return lanes.lane_results()

    def execute_in_space(
        self,
        snippets: Sequence[Snippet],
        space: ConfigurationSpace,
        indices: np.ndarray,
        noise: np.ndarray,
    ) -> List[SnippetResult]:
        """Execute ``snippets[k]`` at ``space[indices[k]]`` with noise row
        ``noise[k]``: one :meth:`execute_lanes` call, its knobs gathered
        from the space's array view."""
        knobs = space.soa_view().clusters
        return self.execute_lanes(
            snippets, [space[i] for i in indices.tolist()],
            characteristics_matrix(snippets),
            {name: arrays.opp_index[indices] for name, arrays in knobs.items()},
            {name: arrays.active_cores[indices]
             for name, arrays in knobs.items()},
            noise,
        )

    def run_snippet(
        self,
        snippet: Snippet,
        config: SoCConfiguration,
        noise: Optional[Sequence[float]] = None,
    ) -> SnippetResult:
        """Execute ``snippet`` at ``config``: one lane of :meth:`execute_lanes`.

        ``noise`` is the execution's (time, power) measurement-noise factor
        pair, one row of :meth:`draw_noise`.  Without it the result holds
        the expected values.  A configuration whose OPP index lies outside
        its cluster's OPP table, or whose active cores lie outside
        ``[1, n_cores]``, raises :class:`ValueError` naming the cluster:
        the array model would wrap or clamp such a knob silently.
        """
        opp_index: Dict[str, np.ndarray] = {}
        cores: Dict[str, np.ndarray] = {}
        for name in self.platform.cluster_names:
            spec = self.platform.cluster(name)
            opp, active = config.opp_index(name), config.cores(name)
            if not 0 <= opp < len(spec.opps):
                raise ValueError(
                    f"cluster {name!r} has OPP indices 0..{len(spec.opps) - 1}, "
                    f"got {opp}")
            if not 1 <= active <= spec.n_cores:
                raise ValueError(
                    f"cluster {name!r} has 1..{spec.n_cores} active cores, "
                    f"got {active}")
            opp_index[name] = np.array([opp])
            cores[name] = np.array([active])
        factors = np.ones((1, 2)) if noise is None else np.array([noise], float)
        return self.execute_lanes(
            [snippet], [config], characteristics_matrix([snippet]),
            opp_index, cores, factors,
        )[0]

    def draw_noise(self, steps: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """``(steps, 2)`` measurement-noise factors, one row per execution.

        Each row is the (time, power) pair of log-normal
        ``exp(normal(0, noise_scale))`` factors :meth:`execute_lanes`
        applies.  The normals come from ``rng`` (the simulator's own
        generator when ``None``), two per row in row order, which is the
        order of one two-draw call per execution.  A noise-free simulator
        draws nothing and returns ones.
        """
        if self.noise_scale == 0.0:
            return np.ones((steps, 2))
        rng = self.rng if rng is None else rng
        return np.exp(rng.normal(0.0, self.noise_scale, size=(steps, 2)))

    def evaluate_expected_batch(
        self, snippets: Sequence[Snippet], space: ConfigurationSpace,
        characteristics: np.ndarray,
    ) -> SoCBatchResult:
        """Noise-free evaluation of every snippet at every configuration.

        One noise-free :meth:`run_snippet` per (snippet, configuration)
        pair, as a single :meth:`expected_arrays` pass over the space's
        cached knob arrays, whose result arrays are
        ``(len(snippets), len(space))``, which is what makes exhaustive
        Oracle construction fast.  ``characteristics`` holds the snippets'
        :func:`characteristics_matrix` rows.
        """
        knobs = space.soa_view().clusters
        return self.expected_arrays(
            list(snippets), space.configurations,
            characteristics.T[:, :, None],
            {name: arrays.opp_index for name, arrays in knobs.items()},
            {name: arrays.active_cores for name, arrays in knobs.items()},
        )
