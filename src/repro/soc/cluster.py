"""CPU cluster specification (big or LITTLE).

A cluster groups homogeneous cores that share a DVFS domain.  The spec holds
the micro-architectural parameters needed by the snippet-level performance and
power models: peak IPC, effective switching capacitance, leakage coefficient,
and per-cluster memory-latency sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.soc.opp import OPPTable


@dataclass
class ClusterSpec:
    """Static description of one CPU cluster.

    Parameters
    ----------
    name:
        Human readable name, e.g. ``"big"`` or ``"little"``.
    n_cores:
        Number of cores in the cluster.
    opps:
        DVFS operating-point table shared by all cores in the cluster.
    ipc_peak:
        Peak (non-stalled) instructions per cycle of a single core.
    capacitance_eff_f:
        Effective switching capacitance per core in farads; dynamic power is
        ``C_eff * V^2 * f * utilisation`` per active core.
    leakage_w_per_v:
        Leakage (static) power per powered core per volt.
    base_cpi:
        Baseline cycles per instruction at full pipeline efficiency (1/ipc_peak
        adjusted for front-end overheads).
    branch_penalty_cycles:
        Pipeline refill penalty charged per branch misprediction.
    l2_miss_penalty_ns:
        Average DRAM access latency charged per L2 miss in nanoseconds
        (converted to cycles at the current frequency, which is what produces
        the memory-boundedness "diminishing returns" with frequency).
    """

    name: str
    n_cores: int
    opps: OPPTable
    ipc_peak: float = 2.0
    capacitance_eff_f: float = 1.0e-9
    leakage_w_per_v: float = 0.15
    base_cpi: float = field(default=0.0)
    branch_penalty_cycles: float = 14.0
    l2_miss_penalty_ns: float = 80.0

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ValueError(f"cluster needs at least one core, got {self.n_cores}")
        if self.ipc_peak <= 0:
            raise ValueError(f"ipc_peak must be positive, got {self.ipc_peak}")
        if self.capacitance_eff_f <= 0:
            raise ValueError("capacitance_eff_f must be positive")
        if self.leakage_w_per_v < 0:
            raise ValueError("leakage_w_per_v must be non-negative")
        if self.base_cpi <= 0:
            self.base_cpi = 1.0 / self.ipc_peak
