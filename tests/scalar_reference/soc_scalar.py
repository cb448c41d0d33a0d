"""The per-cluster scalar SoC model (oracle of ``expected_arrays``).

:meth:`~repro.soc.simulator.SoCSimulator.expected_arrays` evaluates
(snippet, configuration) pairs as arrays, and every execution in
``src/repro`` is a lane of it: the Oracle sweep, a fleet step, a lone
:meth:`~repro.soc.simulator.SoCSimulator.run_snippet`.  These functions
are the Python-float model it replaced: one CPI and one Amdahl time per
cluster (:func:`cluster_cpi`, :func:`cluster_time_and_work`), each
cluster's dynamic and static power (:func:`dynamic_power_w`,
:func:`static_power_w`), and :func:`run_snippet`, which sums them and
applies a (time, power) noise row.  The tests check the array kernel
against them, bit for bit, on in-range configurations.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.soc.cluster import ClusterSpec
from repro.soc.configuration import SoCConfiguration
from repro.soc.counters import PerformanceCounters
from repro.soc.simulator import (BYTES_PER_EXTERNAL_REQUEST,
                                 LITTLE_BACKGROUND_UTILIZATION,
                                 SnippetResult, SoCSimulator)
from repro.soc.snippet import Snippet


def dynamic_power_w(spec: ClusterSpec, opp_index: int, active_cores: int,
                    utilization: float) -> float:
    """Dynamic power for ``active_cores`` cores at ``opp_index``."""
    if not 0 <= opp_index < len(spec.opps):
        raise IndexError(f"opp_index {opp_index} out of range")
    active = max(0, min(spec.n_cores, int(active_cores)))
    util = float(min(max(utilization, 0.0), 1.0))
    opp = spec.opps[opp_index]
    return spec.capacitance_eff_f * opp.voltage_v**2 * opp.frequency_hz * active * util


def static_power_w(spec: ClusterSpec, opp_index: int,
                   powered_cores: int) -> float:
    """Leakage power for ``powered_cores`` powered-on cores."""
    if not 0 <= opp_index < len(spec.opps):
        raise IndexError(f"opp_index {opp_index} out of range")
    powered = max(0, min(spec.n_cores, int(powered_cores)))
    opp = spec.opps[opp_index]
    return spec.leakage_w_per_v * opp.voltage_v * powered


def cluster_cpi(simulator: SoCSimulator, cluster_name: str, snippet: Snippet,
                opp_index: int) -> float:
    spec = simulator.platform.cluster(cluster_name)
    opp = spec.opps[opp_index]
    chars = snippet.characteristics
    frequency_ghz = opp.frequency_hz / 1e9
    cpi = spec.base_cpi / chars.ilp_factor
    cpi += chars.branch_misprediction_mpki / 1000.0 * spec.branch_penalty_cycles
    cpi += chars.memory_intensity / 1000.0 * spec.l2_miss_penalty_ns * frequency_ghz
    return cpi


def cluster_time_and_work(
    simulator: SoCSimulator, cluster_name: str, snippet: Snippet,
    config: SoCConfiguration,
) -> Dict[str, float]:
    """Return elapsed time, busy core-seconds and cycles for one cluster."""
    spec = simulator.platform.cluster(cluster_name)
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
    cpi = cluster_cpi(simulator, cluster_name, snippet, opp_index)
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


def run_snippet(
    simulator: SoCSimulator,
    snippet: Snippet,
    config: SoCConfiguration,
    noise: Optional[Sequence[float]] = None,
) -> SnippetResult:
    """Execute ``snippet`` at ``config`` and return the full result.

    ``noise`` is the execution's (time, power) measurement-noise factor
    pair, one row of :meth:`~repro.soc.simulator.SoCSimulator.draw_noise`.
    Without it the result holds the expected values.
    """
    chars = snippet.characteristics
    per_cluster = {
        name: cluster_time_and_work(simulator, name, snippet, config)
        for name in simulator.platform.cluster_names
    }
    total_time = max(info["elapsed_s"] for info in per_cluster.values())
    if total_time <= 0.0:
        raise ValueError("snippet produced zero execution time")

    utilizations: Dict[str, float] = {}
    total_power = simulator.platform.base_power_w
    for name, info in per_cluster.items():
        spec = simulator.platform.cluster(name)
        opp_index = config.opp_index(name)
        active = config.cores(name)
        utilization = info["busy_core_s"] / (active * total_time)
        if name == "little":
            utilization = min(1.0, utilization + LITTLE_BACKGROUND_UTILIZATION)
        utilization = min(1.0, utilization)
        utilizations[name] = utilization
        dynamic = dynamic_power_w(spec, opp_index, active, utilization)
        static = static_power_w(spec, opp_index, active)
        total_power += dynamic + static

    l2_misses = snippet.n_instructions * chars.memory_intensity / 1000.0
    external_requests = l2_misses * chars.external_request_rate
    memory_traffic_gbps = (
        external_requests * BYTES_PER_EXTERNAL_REQUEST / total_time / 1e9
    )
    memory_power = simulator.platform.memory_power_w_per_gbps * memory_traffic_gbps
    total_power += memory_power

    time_noise, power_noise = ((1.0, 1.0) if noise is None
                               else map(float, noise))
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
    )


def evaluate_expected(simulator: SoCSimulator, snippet: Snippet,
                      config: SoCConfiguration) -> SnippetResult:
    """Noise-free evaluation used for Oracle construction and analysis."""
    return run_snippet(simulator, snippet, config)
