"""Online adaptive analytical models (paper Section III).

These models characterise power and performance as functions of runtime
system states (performance counters) and adapt at runtime through
light-weight online learning (recursive least squares with forgetting and
the STAFF adaptive forgetting factor).
"""

from repro.models.power import CpuPowerModel, PowerModelFeatures
from repro.models.performance import (
    CpuPerformanceModel,
    FrameTimeModel,
    PerformanceModelFeatures,
)
from repro.models.staff import StabilizedAdaptiveForgettingRLS

__all__ = [
    "CpuPowerModel",
    "PowerModelFeatures",
    "CpuPerformanceModel",
    "FrameTimeModel",
    "PerformanceModelFeatures",
    "StabilizedAdaptiveForgettingRLS",
]
