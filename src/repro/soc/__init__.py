"""Heterogeneous SoC simulator substrate.

The paper evaluates its IL/RL policies on an Odroid-XU3 board (Samsung Exynos
5422, 4x Cortex-A15 "big" + 4x Cortex-A7 "LITTLE", per-cluster DVFS, on-board
power sensors).  That hardware is replaced here by a counter-driven,
snippet-level simulator: applications are executed as sequences of
instruction-count snippets, and for each (snippet, configuration) pair the
simulator produces the Table-I performance counters, execution time, power
and energy with realistic frequency/voltage and memory-boundedness effects.
"""

from repro.soc.opp import OperatingPoint, OPPTable
from repro.soc.cluster import ClusterSpec
from repro.soc.platform import PlatformSpec, odroid_xu3_like, generic_big_little
from repro.soc.configuration import (
    ClusterArrays,
    ConfigurationSpace,
    NeighborhoodView,
    SoCConfiguration,
    SpaceArrays,
)
from repro.soc.counters import PerformanceCounters, COUNTER_NAMES
from repro.soc.snippet import Snippet, SnippetCharacteristics
from repro.soc.simulator import SoCBatchResult, SoCSimulator, SnippetResult
from repro.soc.governors import (
    Governor,
    OndemandGovernor,
    InteractiveGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)

__all__ = [
    "OperatingPoint",
    "OPPTable",
    "ClusterSpec",
    "PlatformSpec",
    "odroid_xu3_like",
    "generic_big_little",
    "SoCConfiguration",
    "ConfigurationSpace",
    "ClusterArrays",
    "SpaceArrays",
    "NeighborhoodView",
    "PerformanceCounters",
    "COUNTER_NAMES",
    "Snippet",
    "SnippetCharacteristics",
    "SoCSimulator",
    "SoCBatchResult",
    "SnippetResult",
    "Governor",
    "OndemandGovernor",
    "InteractiveGovernor",
    "PerformanceGovernor",
    "PowersaveGovernor",
]
