"""Integrated GPU subsystem model.

The ENMPC experiments of the paper (Sec. IV-B, Fig. 5) control an Intel
integrated GPU with two knobs: the DVFS operating point and the number of
active GPU slices (power gating).  This package provides a frame-based GPU
model with those knobs, per-frame workload traces for the graphics
benchmarks, a frequency-only baseline governor, and a frame-loop simulator
that accounts GPU / package / package+DRAM energy against an FPS target.
"""

from repro.gpu.gpu import GPUSpec, GPUConfiguration, default_integrated_gpu
from repro.gpu.frames import Frame, FrameTrace, FrameResult
from repro.gpu.baseline_governor import BaselineGPUGovernor
from repro.gpu.simulator import GPUController, GPURunSummary, GPUSimulator

__all__ = [
    "GPUSpec",
    "GPUConfiguration",
    "default_integrated_gpu",
    "Frame",
    "FrameTrace",
    "FrameResult",
    "BaselineGPUGovernor",
    "GPUSimulator",
    "GPURunSummary",
    "GPUController",
]
