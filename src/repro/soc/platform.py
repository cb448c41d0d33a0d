"""Platform specifications (collections of clusters plus uncore parameters).

Two factories are provided:

* :func:`odroid_xu3_like` — a big.LITTLE platform modelled after the Samsung
  Exynos 5422 in the Odroid-XU3 board used by the paper's IL experiments
  (4x A15 @ 200-2000 MHz, 4x A7 @ 200-1400 MHz, per-cluster DVFS).
* :func:`generic_big_little` — a parameterised platform for sweeps and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.soc.cluster import ClusterSpec
from repro.soc.opp import OPPTable


@dataclass
class PlatformSpec:
    """Static description of a heterogeneous SoC platform.

    Parameters
    ----------
    name:
        Platform identifier.
    clusters:
        Mapping from cluster name (``"big"``/``"little"``) to its spec.
    memory_power_w_per_gbps:
        DRAM + memory-controller power per GB/s of traffic.
    base_power_w:
        Always-on uncore/rail power (display and radios excluded).
    """

    name: str
    clusters: Dict[str, ClusterSpec]
    memory_power_w_per_gbps: float = 0.35
    base_power_w: float = 0.25

    def __post_init__(self) -> None:
        if not self.clusters:
            raise ValueError("platform requires at least one cluster")
        if self.memory_power_w_per_gbps < 0:
            raise ValueError("memory_power_w_per_gbps must be non-negative")
        if self.base_power_w < 0:
            raise ValueError("base_power_w must be non-negative")

    @property
    def cluster_names(self) -> List[str]:
        return list(self.clusters.keys())

    def cluster(self, name: str) -> ClusterSpec:
        if name not in self.clusters:
            raise KeyError(f"unknown cluster {name!r}; have {self.cluster_names}")
        return self.clusters[name]

    @property
    def big(self) -> ClusterSpec:
        return self.cluster("big")

    @property
    def little(self) -> ClusterSpec:
        return self.cluster("little")

    def content_key(self) -> tuple:
        """Content-derived, process-stable identity of this platform.

        Covers every parameter that feeds the power/performance models, so
        two platform objects with equal content — e.g. the same spec
        pickled into another process — produce equal keys, while any
        model-visible difference (an OPP table, a coefficient) splits them.
        Unlike ``id()``-based keys this is safe to use in fleet grouping
        keys, cross-process maps and Oracle table names (through
        :meth:`~repro.soc.configuration.ConfigurationSpace.content_key`).
        Clusters key in sorted-name order so dict insertion order cannot
        leak in.
        """
        clusters = []
        for name in sorted(self.clusters):
            spec = self.clusters[name]
            clusters.append((
                name,
                spec.n_cores,
                spec.ipc_peak,
                spec.capacitance_eff_f,
                spec.leakage_w_per_v,
                spec.base_cpi,
                spec.branch_penalty_cycles,
                spec.l2_miss_penalty_ns,
                tuple((opp.frequency_hz, opp.voltage_v) for opp in spec.opps),
            ))
        return (
            self.name,
            self.memory_power_w_per_gbps,
            self.base_power_w,
            tuple(clusters),
        )


def odroid_xu3_like(
    n_big_levels: int = 8,
    n_little_levels: int = 6,
) -> PlatformSpec:
    """Platform spec modelled after the Odroid-XU3 (Exynos 5422).

    The real board exposes 19 big-cluster OPPs (200 MHz - 2.0 GHz) and 13
    LITTLE-cluster OPPs (200 MHz - 1.4 GHz).  The defaults here subsample the
    DVFS range to keep the Oracle's exhaustive configuration sweep fast while
    preserving the frequency span; pass larger values to approach the full
    table.
    """
    big_opps = OPPTable.from_frequency_range(
        min_frequency_hz=600e6,
        max_frequency_hz=2000e6,
        n_levels=n_big_levels,
        min_voltage_v=0.90,
        max_voltage_v=1.30,
    )
    little_opps = OPPTable.from_frequency_range(
        min_frequency_hz=400e6,
        max_frequency_hz=1400e6,
        n_levels=n_little_levels,
        min_voltage_v=0.90,
        max_voltage_v=1.15,
    )
    big = ClusterSpec(
        name="big",
        n_cores=4,
        opps=big_opps,
        ipc_peak=2.3,
        capacitance_eff_f=1.9e-9,
        leakage_w_per_v=0.45,
        branch_penalty_cycles=15.0,
        l2_miss_penalty_ns=95.0,
    )
    little = ClusterSpec(
        name="little",
        n_cores=4,
        opps=little_opps,
        ipc_peak=1.1,
        capacitance_eff_f=0.45e-9,
        leakage_w_per_v=0.10,
        branch_penalty_cycles=8.0,
        l2_miss_penalty_ns=110.0,
    )
    return PlatformSpec(
        name="odroid-xu3-like",
        clusters={"big": big, "little": little},
        memory_power_w_per_gbps=0.35,
        base_power_w=0.30,
    )


def generic_big_little(
    n_big_cores: int = 4,
    n_little_cores: int = 4,
    n_big_levels: int = 6,
    n_little_levels: int = 4,
    big_max_frequency_hz: float = 2.4e9,
    little_max_frequency_hz: float = 1.6e9,
) -> PlatformSpec:
    """Parameterised big.LITTLE platform for tests and sweeps."""
    big_opps = OPPTable.from_frequency_range(
        min_frequency_hz=big_max_frequency_hz / 4.0,
        max_frequency_hz=big_max_frequency_hz,
        n_levels=n_big_levels,
    )
    little_opps = OPPTable.from_frequency_range(
        min_frequency_hz=little_max_frequency_hz / 4.0,
        max_frequency_hz=little_max_frequency_hz,
        n_levels=n_little_levels,
    )
    big = ClusterSpec(
        name="big",
        n_cores=n_big_cores,
        opps=big_opps,
        ipc_peak=2.5,
        capacitance_eff_f=2.0e-9,
        leakage_w_per_v=0.5,
    )
    little = ClusterSpec(
        name="little",
        n_cores=n_little_cores,
        opps=little_opps,
        ipc_peak=1.2,
        capacitance_eff_f=0.5e-9,
        leakage_w_per_v=0.12,
    )
    return PlatformSpec(
        name="generic-big-little",
        clusters={"big": big, "little": little},
    )
