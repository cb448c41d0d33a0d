"""Performance-counter vector collected per snippet (paper Table I).

The paper's Table I lists the data collected in each snippet:

* Instructions retired
* CPU cycles
* Branch mispredictions per core
* Level-2 cache misses
* Data memory accesses
* Non-cache external memory requests
* Total little-cluster utilisation
* Per-core big-cluster utilisation
* Total chip power consumption

The DRM policies consume these values (optionally normalised per instruction)
as their state features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, List

import numpy as np

COUNTER_NAMES: List[str] = [
    "instructions_retired",
    "cpu_cycles",
    "branch_mispredictions",
    "l2_cache_misses",
    "data_memory_accesses",
    "noncache_external_memory_requests",
    "little_cluster_utilization",
    "big_cluster_utilization",
    "total_chip_power_w",
]

#: Derived per-instruction feature names used by the policies and models.
FEATURE_NAMES: List[str] = [
    "cycles_per_instruction",
    "branch_misses_per_kilo_instruction",
    "l2_misses_per_kilo_instruction",
    "memory_accesses_per_kilo_instruction",
    "external_requests_per_kilo_instruction",
    "little_cluster_utilization",
    "big_cluster_utilization",
    "instruction_rate_giga_per_s",
]


@dataclass
class PerformanceCounters:
    """Values of the Table-I counters for one executed snippet."""

    instructions_retired: float
    cpu_cycles: float
    branch_mispredictions: float
    l2_cache_misses: float
    data_memory_accesses: float
    noncache_external_memory_requests: float
    little_cluster_utilization: float
    big_cluster_utilization: float
    total_chip_power_w: float
    execution_time_s: float = 0.0

    def __post_init__(self) -> None:
        if self.instructions_retired <= 0:
            raise ValueError("instructions_retired must be positive")
        if self.cpu_cycles < 0:
            raise ValueError("cpu_cycles must be non-negative")
        for name in ("little_cluster_utilization", "big_cluster_utilization"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name} must be within [0, 1], got {value}")

    @classmethod
    def _from_values(cls, values: Dict[str, float]) -> "PerformanceCounters":
        """Hot-path constructor adopting ``values`` as the instance state.

        Bypasses ``__init__``/``__post_init__`` (validation included) —
        callers guarantee a complete field dict whose values would pass
        validation (the fleet kernel's values mirror the scalar path,
        which validates the identical numbers every step).
        """
        counters = cls.__new__(cls)
        counters.__dict__ = values
        return counters

    def is_valid(self) -> bool:
        """Whether the counters are trustworthy learning/policy inputs.

        Mirrors ``__post_init__``'s physical-range validation plus a
        finiteness check over every field — the signature of injected or
        real telemetry faults (NaN dropout, saturated sensors, garbage
        gains) that must be gated out before reaching the RLS/MLP state.
        Kept allocation-free (a single summed ``isfinite`` plus scalar
        comparisons): the fleet-batched decide/observe paths call it per
        device per step.
        """
        total = (self.instructions_retired + self.cpu_cycles
                 + self.branch_mispredictions + self.l2_cache_misses
                 + self.data_memory_accesses
                 + self.noncache_external_memory_requests
                 + self.little_cluster_utilization
                 + self.big_cluster_utilization + self.total_chip_power_w
                 + self.execution_time_s)
        # Any NaN poisons the sum; a lone ±inf (or an overflowing garbage
        # gain) leaves it non-finite too.
        if not math.isfinite(total):
            return False
        if self.instructions_retired <= 0 or self.cpu_cycles < 0:
            return False
        for value in (self.little_cluster_utilization,
                      self.big_cluster_utilization):
            if not 0.0 <= value <= 1.0 + 1e-9:
                return False
        return True

    def as_dict(self) -> Dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    def feature_vector(self) -> np.ndarray:
        """Normalised per-instruction features used as policy/model inputs.

        Raw counters scale with snippet length, so policies use rates: CPI,
        misses per kilo-instruction, utilisations, and the instruction rate.
        """
        instr = max(self.instructions_retired, 1.0)
        kilo = instr / 1e3
        time_s = max(self.execution_time_s, 1e-9)
        return np.array(
            [
                self.cpu_cycles / instr,
                self.branch_mispredictions / kilo,
                self.l2_cache_misses / kilo,
                self.data_memory_accesses / kilo,
                self.noncache_external_memory_requests / kilo,
                self.little_cluster_utilization,
                self.big_cluster_utilization,
                instr / time_s / 1e9,
            ],
            dtype=float,
        )
