"""Frame workloads for the GPU experiments.

A :class:`Frame` is one unit of rendering work; a :class:`FrameTrace` is the
per-frame workload of a whole benchmark run together with its target frame
rate.  Traces are generated synthetically with controllable mean load,
scene-to-scene variation and slowly varying "scene phases" so that both the
online frame-time model (Fig. 2) and the multi-rate controller (Fig. 5) see
realistic dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class Frame:
    """One frame of rendering work."""

    index: int
    work_cycles: float
    memory_bytes: float

    def __post_init__(self) -> None:
        if self.work_cycles <= 0:
            raise ValueError("work_cycles must be positive")
        if self.memory_bytes < 0:
            raise ValueError("memory_bytes must be non-negative")


@dataclass
class FrameResult:
    """Outcome of rendering one frame under a given GPU configuration."""

    frame: Frame
    opp_index: int
    active_slices: int
    busy_time_s: float
    frame_time_s: float
    gpu_energy_j: float
    dram_energy_j: float
    cpu_energy_j: float
    deadline_s: float

    @property
    def met_deadline(self) -> bool:
        return self.frame_time_s <= self.deadline_s + 1e-9

    @property
    def package_energy_j(self) -> float:
        """PKG = GPU + CPU package energy."""
        return self.gpu_energy_j + self.cpu_energy_j

    @property
    def package_dram_energy_j(self) -> float:
        """PKG+DRAM = GPU + CPU + DRAM energy."""
        return self.gpu_energy_j + self.cpu_energy_j + self.dram_energy_j


@dataclass
class FrameTrace:
    """A named sequence of frames with a target frame rate."""

    name: str
    frames: List[Frame]
    target_fps: float = 30.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("FrameTrace requires at least one frame")
        if self.target_fps <= 0:
            raise ValueError("target_fps must be positive")

    def __len__(self) -> int:
        return len(self.frames)

    @property
    def deadline_s(self) -> float:
        return 1.0 / self.target_fps

    def mean_work_cycles(self) -> float:
        return float(np.mean([f.work_cycles for f in self.frames]))


def generate_frame_trace(
    name: str,
    n_frames: int,
    mean_work_cycles: float,
    work_variation: float = 0.1,
    phase_period: int = 120,
    phase_amplitude: float = 0.15,
    memory_bytes_per_cycle: float = 0.8,
    target_fps: float = 30.0,
    seed: SeedLike = None,
    description: str = "",
) -> FrameTrace:
    """Generate a synthetic frame trace.

    Frame work follows a slow sinusoidal "scene" modulation (period
    ``phase_period`` frames, relative amplitude ``phase_amplitude``) with
    lognormal frame-to-frame jitter of relative width ``work_variation`` —
    the combination seen in real game traces where scene changes are slow
    compared to per-frame noise.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    if mean_work_cycles <= 0:
        raise ValueError("mean_work_cycles must be positive")
    if work_variation < 0 or phase_amplitude < 0:
        raise ValueError("variation parameters must be non-negative")
    rng = make_rng(seed)
    frames: List[Frame] = []
    for i in range(n_frames):
        phase = 1.0 + phase_amplitude * np.sin(2.0 * np.pi * i / max(2, phase_period))
        jitter = float(np.exp(rng.normal(0.0, work_variation)))
        work = mean_work_cycles * phase * jitter
        memory = work * memory_bytes_per_cycle * float(np.exp(rng.normal(0.0, 0.05)))
        frames.append(Frame(index=i, work_cycles=work, memory_bytes=memory))
    return FrameTrace(name=name, frames=frames, target_fps=target_fps,
                      description=description)
